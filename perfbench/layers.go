package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/netlist"
)

// metricsDoc is the part of an obs.Metrics JSON dump (the /v1/metricz
// body) the per-layer metrics read.
type metricsDoc struct {
	Counters map[string]float64  `json:"counters"`
	Spans    map[string]spanStat `json:"spans"`
}

type spanStat struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
}

func parseMetrics(r io.Reader) (metricsDoc, error) {
	var d metricsDoc
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return d, fmt.Errorf("decode metrics: %w", err)
	}
	return d, nil
}

// sub returns the counters and spans accumulated between o and d.
func (d metricsDoc) sub(o metricsDoc) metricsDoc {
	out := metricsDoc{Counters: map[string]float64{}, Spans: map[string]spanStat{}}
	for k, v := range d.Counters {
		out.Counters[k] = v - o.Counters[k]
	}
	for k, s := range d.Spans {
		p := o.Spans[k]
		s.Count -= p.Count
		s.TotalNs -= p.TotalNs
		out.Spans[k] = s
	}
	return out
}

// stageKey reports whether k is base or base qualified by a stage number
// ("ripup.conflicts" or "ripup.conflicts.2").
func stageKey(k, base string) bool {
	if k == base {
		return true
	}
	rest, ok := strings.CutPrefix(k, base+".")
	if !ok || rest == "" {
		return false
	}
	for _, r := range rest {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// counter sums a counter over its stage-qualified keys.
func (d metricsDoc) counter(base string) float64 {
	t := 0.0
	for k, v := range d.Counters {
		if stageKey(k, base) {
			t += v
		}
	}
	return t
}

// span sums a span's count and total time (ms) over its stage-qualified keys.
func (d metricsDoc) span(base string) (count int, totalMs float64) {
	for k, s := range d.Spans {
		if stageKey(k, base) {
			count += s.Count
			totalMs += float64(s.TotalNs) / 1e6
		}
	}
	return count, totalMs
}

// pipelineLayers derives the planner's per-layer metrics (core stages,
// router, rip-up, buffer DP, mcf) from the telemetry of a pass, per op.
func pipelineLayers(d metricsDoc, ops int) map[string]metric {
	per := func(v float64) float64 { return v / float64(ops) }
	m := map[string]metric{}
	for st := 1; st <= 4; st++ {
		_, t := d.span(fmt.Sprintf("stage.%d", st))
		m[fmt.Sprintf("core.stage%d_ms", st)] = metric{per(t), "ms"}
	}
	for _, k := range []string{"route.pops.2", "route.relaxations.2", "route.bap.pops.4", "route.bap.relaxations.4"} {
		m[k] = metric{per(d.Counters[k]), "count/op"}
	}
	m["rework.twopaths"] = metric{per(d.counter("rework.twopaths")), "count/op"}
	spec, conf := d.counter("ripup.speculative"), d.counter("ripup.conflicts")
	m["ripup.speculative"] = metric{per(spec), "count/op"}
	m["ripup.conflicts"] = metric{per(conf), "count/op"}
	m["ripup.replayed"] = metric{per(d.counter("ripup.replayed")), "count/op"}
	ratio := 0.0
	if spec > 0 {
		ratio = conf / spec
	}
	m["ripup.conflict_ratio"] = metric{ratio, "ratio"}
	_, assign := d.span("net.assign")
	m["bufferdp.assign_ms"] = metric{per(assign), "ms"}
	phases, mcfMs := d.span("mcf.phase")
	m["mcf.stage2_ms"] = metric{per(mcfMs), "ms"}
	m["mcf.phases"] = metric{per(float64(phases)), "count/op"}
	return m
}

// serverLayers sets the service-edge metrics: the cache and admission
// counters of the pass (totals), the mean request time, and the edge's
// self time: request time minus what the timed child layers account for.
func serverLayers(m map[string]metric, d metricsDoc, requestMs, childMs float64) {
	for name, key := range map[string]string{
		"cache.hits": "cache.hit", "cache.misses": "cache.miss", "cache.evictions": "cache.evict",
		"cache.coalesced": "cache.coalesced", "server.rejected": "server.rejected",
	} {
		m[name] = metric{d.Counters[key], "count"}
	}
	m["server.request_ms"] = metric{requestMs, "ms"}
	m["server.edge_self_ms"] = metric{requestMs - childMs, "ms"}
}

// layerTimes accumulates the times of the request-edge layers, measured by
// calling their public functions outside any request.
type layerTimes struct {
	n                      int // bodies taken through decode, normalize, key
	decode, normalize, key time.Duration
	plans                  int // results taken through report and encode
	report, encode         time.Duration
	reqBytes, respBytes    int
}

// edge decodes a circuit, normalizes its parameters and derives its content
// key, timing each step as a span of op.
func (lt *layerTimes) edge(tr *tracer, op int, circuitJSON []byte, p core.Params, reqBytes int) (*netlist.Circuit, core.Params, string, error) {
	t0 := time.Now()
	c, err := netlist.ReadJSON(bytes.NewReader(circuitJSON))
	t1 := time.Now()
	if err != nil {
		return nil, p, "", err
	}
	p, err = backend.Normalize(p)
	t2 := time.Now()
	if err != nil {
		return nil, p, "", err
	}
	key, err := cache.PlanKey(c, p)
	t3 := time.Now()
	if err != nil {
		return nil, p, "", err
	}
	tr.add(op, 0, "netlist.decode", t0, t1)
	tr.add(op, 0, "backend.normalize", t1, t2)
	tr.add(op, 0, "cache.key", t2, t3)
	lt.decode += t1.Sub(t0)
	lt.normalize += t2.Sub(t1)
	lt.key += t3.Sub(t2)
	lt.n++
	lt.reqBytes += reqBytes
	return c, p, key, nil
}

// respond builds the /v1/plan response body of a result the way the
// service does (report with the wall-clock column zeroed, then JSON),
// timing both steps as spans of op.
func (lt *layerTimes) respond(tr *tracer, op int, res *core.Result, key string) ([]byte, error) {
	t0 := time.Now()
	rep, err := res.Report()
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	for i := range rep.Stages {
		rep.Stages[i].CPUSeconds = 0
	}
	body, err := json.Marshal(planResponse{Key: key, Report: rep})
	t2 := time.Now()
	if err != nil {
		return nil, err
	}
	tr.add(op, 0, "core.report", t0, t1)
	tr.add(op, 0, "server.encode", t1, t2)
	lt.report += t1.Sub(t0)
	lt.encode += t2.Sub(t1)
	lt.plans++
	lt.respBytes += len(body)
	return body, nil
}

// edgeMs is the per-body time of decode, normalize and key.
func (lt *layerTimes) edgeMs() float64 {
	return ms(lt.decode+lt.normalize+lt.key) / float64(max(lt.n, 1))
}

// respondMs is the per-plan time of report and encode.
func (lt *layerTimes) respondMs() float64 {
	return ms(lt.report+lt.encode) / float64(max(lt.plans, 1))
}

// addTo sets the edge-layer metrics: decode, normalize and key per body,
// report and encode per plan, and the mean request and response sizes.
func (lt *layerTimes) addTo(m map[string]metric) {
	n, p := float64(max(lt.n, 1)), float64(max(lt.plans, 1))
	m["netlist.decode_ms"] = metric{ms(lt.decode) / n, "ms"}
	m["backend.normalize_ms"] = metric{ms(lt.normalize) / n, "ms"}
	m["cache.key_ms"] = metric{ms(lt.key) / n, "ms"}
	m["core.report_ms"] = metric{ms(lt.report) / p, "ms"}
	m["server.encode_ms"] = metric{ms(lt.encode) / p, "ms"}
	m["req_kb"] = metric{float64(lt.reqBytes) / n / 1024, "KiB"}
	m["resp_kb"] = metric{float64(lt.respBytes) / p / 1024, "KiB"}
}
