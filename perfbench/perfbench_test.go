package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload's default configuration to a sub-second run on
// two small circuits at coarse grids.
func tiny(t *testing.T, workload string) config {
	t.Helper()
	cfg, ok := defaultConfig(workload)
	if !ok {
		t.Fatalf("unknown workload %q", workload)
	}
	cfg.seed = 1
	cfg.window = 300 * time.Millisecond
	cfg.setups = 2
	cfg.circuits = []string{"apte", "hp"}
	cfg.gridDiv = 3
	cfg.hitInstances = 2
	cfg.qualityPrefix = 4
	cfg.replanStride = 2
	cfg.probeMissPlans = 2
	cfg.minTail = 0
	return cfg
}

// benchmarkSpec is the part of ../BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func runTiny(t *testing.T, cfg config) *report {
	t.Helper()
	rep, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", cfg.workload, cfg.trace, err)
	}
	if err := rep.checkFinite(); err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkMetrics asserts the result carries exactly the named metrics, each
// finite and in its declared unit.
func checkMetrics(t *testing.T, rep *report, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(rep.result.Metrics) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json names %d", len(rep.result.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := rep.result.Metrics[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", w.Name, m.Value)
		}
	}
}

func TestWorkloadsTinyReportEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			cfg := tiny(t, w)
			rep := runTiny(t, cfg)
			if !rep.result.Correct || rep.result.Failed != 0 || rep.result.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", rep.result.Correct,
					rep.result.Attempted, rep.result.Failed, rep.info["failures"])
			}
			checkMetrics(t, rep, spec.EndToEnd)
			for _, name := range []string{"ops_per_s", "setup_s", "buffers", "wirelength_mm", "cpu_ms_per_op"} {
				if rep.result.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, rep.result.Metrics[name].Value)
				}
			}

			cfg.trace = true
			cfg.traceFile = t.TempDir() + "/spans.jsonl"
			rep = runTiny(t, cfg)
			checkMetrics(t, rep, spec.PerLayer)
			b, err := os.ReadFile(cfg.traceFile)
			if err != nil {
				t.Fatal(err)
			}
			var first span
			if err := json.NewDecoder(bytes.NewReader(b)).Decode(&first); err != nil || first.ID != 1 || first.End < first.Start {
				t.Errorf("first span %+v, err %v", first, err)
			}
		})
	}
}

func TestBadRequestCountsAsFailed(t *testing.T) {
	for _, w := range []string{"serve-hit", "serve-miss"} {
		t.Run(w, func(t *testing.T) {
			cfg := tiny(t, w)
			cfg.setups = 1
			cfg.badRequest = 1
			rep := runTiny(t, cfg)
			if rep.result.Failed != 1 || rep.result.Correct {
				t.Fatalf("failed=%d correct=%v, want 1 failure from the corrupted request", rep.result.Failed, rep.result.Correct)
			}
			ok := rep.result.Metrics["ok_ratio"].Value
			if want := float64(rep.result.Attempted-1) / float64(rep.result.Attempted); ok != want {
				t.Errorf("ok_ratio = %v, want %v", ok, want)
			}
		})
	}
}

var qualityMetrics = []string{"buffers", "length_fails", "wirelength_mm", "wire_congestion_max", "avg_delay_ps"}

func TestSeedFixesInputsAndQuality(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			cfg := tiny(t, w)
			cfg.setups = 1
			a, b := runTiny(t, cfg), runTiny(t, cfg)
			for _, name := range qualityMetrics {
				if a.result.Metrics[name] != b.result.Metrics[name] {
					t.Errorf("seed %d: %s %v then %v", cfg.seed, name, a.result.Metrics[name], b.result.Metrics[name])
				}
			}
		})
	}
	cfg := tiny(t, "serve-miss")
	r1, err := newRequest(cfg, 0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	cfg.seed = 2
	r2, err := newRequest(cfg, 0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(r1.body, r2.body) {
		t.Error("seeds 1 and 2 generate the same circuit")
	}
}

func TestLatencyQuantilesNeedATail(t *testing.T) {
	var samples []time.Duration
	for i := 1; i <= 100; i++ {
		samples = append(samples, time.Duration(i)*time.Millisecond)
	}
	if _, err := latencyQuantiles(samples, 10); err == nil {
		t.Error("100 samples leave 5 above p95, yet the pass was accepted with minTail 10")
	}
	q, err := latencyQuantiles(append(samples, samples...), 5)
	if err != nil {
		t.Fatal(err)
	}
	if q.p50 < 49 || q.p50 > 52 || q.p95 < 94 || q.p95 > 96 {
		t.Errorf("p50 %v p95 %v", q.p50, q.p95)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add(1, 0, "plan", at(0), at(100))
	tr.add(1, root, "stage", at(10), at(40))
	tr.add(1, root, "stage", at(30), at(60)) // overlaps the first child
	self := tr.self()
	if got := self["plan"].ns; got != int64(50*time.Millisecond) {
		t.Errorf("plan self time %v, want 50ms", time.Duration(got))
	}
	if got := self["stage"]; got.count != 2 || got.ns != int64(60*time.Millisecond) {
		t.Errorf("stage %+v", got)
	}
}

func TestUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errb); code != exitUsage {
		t.Errorf("unknown workload: exit %d", code)
	}
	if code := run([]string{"-workload", "suite", "-seconds", "0"}, &out, &errb); code != exitUsage {
		t.Errorf("zero window: exit %d", code)
	}
	if out.Len() != 0 {
		t.Errorf("usage errors printed a result: %q", out.String())
	}
}
