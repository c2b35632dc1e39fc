package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/netlist"
)

// config sizes one run. defaultConfig gives the sizes the benchmark runs
// at; the tests shrink them.
type config struct {
	workload  string
	seed      int64
	window    time.Duration // length of a timed pass
	trace     bool
	traceFile string // where a traced run writes its spans ("" = nowhere)
	setups    int    // set-ups per run; setup_s is their median

	// circuits are the suite circuits the workload draws from, in pass
	// order; gridDiv coarsens their paper grids per axis (1 = paper grid).
	circuits []string
	gridDiv  int
	clients  int // closed-loop callers on the serve workloads

	// mix weights a circuit's share of the serve workloads' requests
	// (default 1); hitInstances is the serve-hit working set's number of
	// instances per unit of weight.
	mix          map[string]int
	hitInstances int

	// serve-miss: distinct bodies generated per second of window, the
	// request prefix whose plans make the quality totals, and the stride
	// of prefix requests re-planned outside the window for verification.
	missPerSecond  int
	qualityPrefix  int
	replanStride   int
	probeMissPlans int // traced serve-miss: prefix plans re-run to time report/encode

	minTail    int // samples required above the p95 latency for a valid pass
	badRequest int // index of a request sent corrupted (tests only; -1 = none)
}

func workloadNames() []string { return []string{"suite", "serve-hit", "serve-miss"} }

func suiteNames() []string {
	specs := floorplan.Suite()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

func defaultConfig(workload string) (config, bool) {
	cfg := config{
		workload:   workload,
		window:     20 * time.Second,
		circuits:   suiteNames(),
		clients:    2,
		badRequest: -1,
	}
	switch workload {
	case "suite":
		cfg.setups = 5
		cfg.gridDiv = 1
	case "serve-hit":
		cfg.setups = 3
		cfg.gridDiv = 3
		cfg.hitInstances = 6
		// Uniform weights put the median request on the step between ac3 and
		// ami49; these put it where the slow half of ami49 overlaps the fast
		// half of hc7, the densest part of the distribution (see README.md).
		cfg.mix = map[string]int{"ami49": 2, "hc7": 2, "xc5": 2}
		cfg.minTail = 10
	case "serve-miss":
		cfg.setups = 3
		cfg.gridDiv = 3
		cfg.missPerSecond = 50
		// Uniform weights put the median request on the step between
		// xerox/mcf and ac3/mcf; more of the three smallest circuits move it
		// into the dense middle of the latency distribution (see README.md).
		cfg.mix = map[string]int{"apte": 2, "hp": 2, "ami33": 2}
		cfg.qualityPrefix = 234
		cfg.replanStride = 20
		cfg.probeMissPlans = 30
		cfg.minTail = 10
	default:
		return cfg, false
	}
	return cfg, true
}

// bench is one set-up workload, ready to run passes.
type bench interface {
	// pass runs one timed closed-loop pass until the window ends, then
	// verifies every output outside the window. tr (nil when untraced)
	// receives the pass's spans.
	pass(tr *tracer) (*passResult, error)
	// probe times the layer functions on the pass's own inputs, outside
	// the window, recording spans on tr, and returns per-layer metrics.
	probe(tr *tracer, pr *passResult) (map[string]metric, error)
	close()
}

var setups = map[string]func(config) (bench, error){
	"suite":      setupSuite,
	"serve-hit":  setupServeHit,
	"serve-miss": setupServeMiss,
}

// passResult is what one timed pass measured and verified.
type passResult struct {
	ops      int // attempted ops
	failed   int
	failures []string // the first few failure descriptions
	elapsed  time.Duration
	latency  []time.Duration
	proc     procSample
	quality  quality
	// telemetry is what the program's own counters and spans accumulated
	// during a traced pass.
	telemetry metricsDoc
	// edge holds decode/normalize/key timings a pass's verification took.
	edge *layerTimes
	// reqBytes and respBytes are the HTTP bodies the pass sent and received.
	reqBytes, respBytes int
	info                map[string]any
}

// fail records a failed op.
func (pr *passResult) fail(format string, args ...any) {
	pr.failed++
	if len(pr.failures) < 5 {
		pr.failures = append(pr.failures, fmt.Sprintf(format, args...))
	}
}

func runWorkload(cfg config) (*report, error) {
	setup := setups[cfg.workload]
	rep := newReport(cfg)
	if cfg.trace {
		return rep, runTraced(cfg, setup, rep)
	}

	var b bench
	var times []float64
	for i := 0; i < cfg.setups; i++ {
		if b != nil {
			b.close()
			b = nil // let the previous set-up's inputs be collected
		}
		t0 := time.Now()
		var err error
		if b, err = setup(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	defer b.close()
	pr, err := b.pass(nil)
	if err != nil {
		return nil, err
	}
	lat, err := latencyQuantiles(pr.latency, cfg.minTail)
	if err != nil {
		return nil, err
	}
	ops := float64(pr.ops)
	rep.set("setup_s", median(times), "s")
	rep.set("ops_per_s", ops/pr.elapsed.Seconds(), "1/s")
	rep.set("latency_p50_ms", lat.p50, "ms")
	rep.set("latency_p95_ms", lat.p95, "ms")
	rep.set("ok_ratio", float64(pr.ops-pr.failed)/ops, "ratio")
	rep.set("cpu_ms_per_op", ms(pr.proc.cpu)/ops, "ms")
	rep.set("alloc_mb_per_op", float64(pr.proc.allocBytes)/ops/(1<<20), "MiB")
	rep.set("max_rss_mb", maxRSSMiB(), "MiB")
	q := pr.quality
	rep.set("buffers", float64(q.buffers), "count")
	rep.set("length_fails", float64(q.fails), "count")
	rep.set("wirelength_mm", q.wirelenMm, "mm")
	rep.set("wire_congestion_max", mean(q.wireMax), "ratio")
	rep.set("avg_delay_ps", mean(q.avgDelay), "ps")
	rep.info["setup_runs_s"] = times
	rep.info["samples"] = len(pr.latency)
	rep.info["samples_above_p95"] = lat.above
	rep.info["fail_ratio"] = float64(pr.failed) / ops
	rep.info["overflows"] = q.overflows
	rep.info["quality_plans"] = q.plans
	rep.info["max_delay_ps"] = maxOf(q.maxDelay)
	rep.info["gc_cycles"] = pr.proc.gcCycles
	addInfo(rep, pr)
	return rep, nil
}

func addInfo(rep *report, pr *passResult) {
	rep.result.Attempted = pr.ops
	rep.result.Failed = pr.failed
	rep.result.Correct = pr.failed == 0
	rep.info["pass_s"] = pr.elapsed.Seconds()
	if len(pr.failures) > 0 {
		rep.info["failures"] = pr.failures
	}
	for k, v := range pr.info {
		rep.info[k] = v
	}
}

// runTraced runs an untraced pass and then a traced one, each on a fresh
// set-up, and reports the per-layer metrics of the traced pass together
// with the tracing overhead between the two.
func runTraced(cfg config, setup func(config) (bench, error), rep *report) error {
	base, err := setup(cfg)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	pr0, err := base.pass(nil)
	base.close()
	if err != nil {
		return err
	}

	b, err := setup(cfg)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer b.close()
	tr := newTracer()
	heap := startHeapSampler()
	pr, err := b.pass(tr)
	peak := heap.stop()
	if err != nil {
		return err
	}
	layers, err := b.probe(tr, pr)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	for name, m := range layers {
		rep.result.Metrics[name] = m
	}
	ops := float64(pr.ops)
	untraced := float64(pr0.ops) / pr0.elapsed.Seconds()
	traced := ops / pr.elapsed.Seconds()
	rep.set("trace.overhead_pct", 100*(untraced-traced)/untraced, "%")
	rep.set("gc.cycles_per_op", float64(pr.proc.gcCycles)/ops, "count/op")
	rep.set("gc.pause_ms_per_op", ms(pr.proc.gcPause)/ops, "ms")
	rep.set("heap_peak_mb", float64(peak)/(1<<20), "MiB")
	rep.info["untraced_ops_per_s"] = untraced
	rep.info["traced_ops_per_s"] = traced
	rep.info["self_ms"] = tr.selfMs()
	if cfg.traceFile != "" {
		if err := tr.write(cfg.traceFile); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		rep.info["spans_file"] = cfg.traceFile
		rep.info["spans"] = tr.len()
	}
	// Both passes are checked, so both count as attempted.
	pr.failures = append(pr.failures, pr0.failures...)
	addInfo(rep, pr)
	rep.result.Attempted += pr0.ops
	rep.result.Failed += pr0.failed
	rep.result.Correct = rep.result.Failed == 0
	return nil
}

// mixed returns the circuit indices of one cycle of the serve workloads'
// request mix: each circuit, in suite order, as often as its weight.
func (cfg config) mixed() []int {
	var seq []int
	for ci, name := range cfg.circuits {
		w := cfg.mix[name]
		if w == 0 {
			w = 1
		}
		for j := 0; j < w; j++ {
			seq = append(seq, ci)
		}
	}
	return seq
}

// genCircuit generates instance k of suite circuit ci for the workload seed
// at the configured grid.
func genCircuit(cfg config, ci, k int) (*netlist.Circuit, error) {
	spec, err := floorplan.BySuiteName(cfg.circuits[ci])
	if err != nil {
		return nil, err
	}
	opt := floorplan.Options{Seed: instanceSeed(cfg.seed, ci, k)}
	if cfg.gridDiv > 1 {
		opt.GridW, opt.GridH = spec.GridW/cfg.gridDiv, spec.GridH/cfg.gridDiv
	}
	return floorplan.Generate(spec, opt)
}

// instanceSeed mixes the workload seed, circuit index and instance index
// into a non-zero floorplan seed (splitmix64 finalizer), so every
// (seed, circuit, instance) triple gets its own circuit.
func instanceSeed(seed int64, ci, k int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(ci)<<40 ^ uint64(k)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if s := int64(x >> 1); s != 0 {
		return s
	}
	return 1
}

// quality sums the final-stage Table II columns over a set of plans.
type quality struct {
	plans     int
	buffers   int
	fails     int
	overflows int
	wirelenMm float64
	wireMax   []float64 // per plan: final max wire congestion
	maxDelay  []float64 // per plan: final max sink delay
	avgDelay  []float64 // per plan: final average sink delay
}

func (q *quality) add(s core.StageReport) {
	q.plans++
	q.buffers += s.Buffers
	q.fails += s.Fails
	q.overflows += s.Overflows
	q.wirelenMm += s.WirelenMm
	q.wireMax = append(q.wireMax, s.WireMax)
	q.maxDelay = append(q.maxDelay, s.MaxDelayPs)
	q.avgDelay = append(q.avgDelay, s.AvgDelayPs)
}

type quantiles struct {
	p50, p95 float64
	above    int // samples strictly above p95
}

// latencyQuantiles returns the median and p95 latency in ms. With minTail
// > 0 a pass that leaves fewer than minTail samples above its p95 is
// invalid: its tail estimate rests on too few observations.
func latencyQuantiles(samples []time.Duration, minTail int) (quantiles, error) {
	v := make([]float64, len(samples))
	for i, d := range samples {
		v[i] = ms(d)
	}
	sort.Float64s(v)
	q := quantiles{p50: quantile(v, 0.50), p95: quantile(v, 0.95)}
	for _, x := range v {
		if x > q.p95 {
			q.above++
		}
	}
	if len(v) == 0 || q.above < minTail {
		return q, fmt.Errorf("%w: %d latency samples, %d above p95 (need %d)", errInvalidPass, len(v), q.above, minTail)
	}
	return q, nil
}

// quantile interpolates linearly between the closest ranks of sorted v.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procSample is a reading of the process's CPU time, allocation and GC
// counters, or the difference of two readings.
type procSample struct {
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: m.TotalAlloc,
		gcCycles:   m.NumGC,
		gcPause:    time.Duration(m.PauseTotalNs),
	}
}

func (a procSample) sub(b procSample) procSample {
	return procSample{
		cpu:        a.cpu - b.cpu,
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcPause:    a.gcPause - b.gcPause,
	}
}

// window brackets one timed pass: it collects garbage first, so every pass
// starts from the same heap state, then samples the process counters.
type window struct {
	start time.Time
	proc  procSample
}

func openWindow() window {
	runtime.GC()
	return window{proc: sampleProc(), start: time.Now()}
}

// close returns the elapsed time and the process counters spent.
func (w window) close() (time.Duration, procSample) {
	elapsed := time.Since(w.start)
	return elapsed, sampleProc().sub(w.proc)
}

func maxRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// heapSampler tracks the peak live-heap size while a traced pass runs.
// Only its goroutine writes peak; stop reads it after the goroutine ended.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.peak = max(h.peak, s[0].Value.Uint64())
			}
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends the sampler, waits for it, and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	<-h.done
	return h.peak
}
