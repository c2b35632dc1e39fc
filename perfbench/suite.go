package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// suiteBench plans the suite circuits at their paper grids with the rabid
// engine, one library call per circuit, the way a floorplanning loop calls
// the planner. Workers stays at its default (GOMAXPROCS).
type suiteBench struct {
	cfg config
	ops []suiteOp
	// last holds the results of the most recent pass, for the probe.
	last []*core.Result
	// lastOps are the op IDs of the most recent pass, for the probe's spans.
	lastOps []int
}

type suiteOp struct {
	name string
	c    *netlist.Circuit
	p    core.Params
	json []byte // the circuit as the planner's callers hand it over
}

// setupSuite generates every circuit, encodes it and decodes it back
// through netlist.ReadJSON, the validating boundary every circuit crosses.
func setupSuite(cfg config) (bench, error) {
	b := &suiteBench{cfg: cfg}
	for i, name := range cfg.circuits {
		c, err := genCircuit(cfg, i, 0)
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(c)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", name, err)
		}
		dc, err := netlist.ReadJSON(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", name, err)
		}
		b.ops = append(b.ops, suiteOp{name: name, c: dc, p: exp.ParamsFor(name), json: raw})
	}
	return b, nil
}

func (b *suiteBench) close() {}

// planSummary is what a pass keeps of one plan: enough to verify it after
// the window without holding every result alive.
type planSummary struct {
	err   error
	final core.StageReport
}

// pass plans the whole suite again and again until the window has passed;
// only whole passes count, because the circuits differ in cost by an
// order of magnitude. Each pass is one latency sample.
func (b *suiteBench) pass(tr *tracer) (*passResult, error) {
	pr := &passResult{}
	var m *obs.Metrics
	var o obs.Observer // stays a nil interface when untraced
	if tr != nil {
		m = obs.NewMetrics()
		o = m
	}
	ctx := context.Background()
	var passes [][]planSummary
	b.last = make([]*core.Result, len(b.ops))
	b.lastOps = make([]int, len(b.ops))
	w := openWindow()
	for {
		t0 := time.Now()
		sums := make([]planSummary, len(b.ops))
		for i, op := range b.ops {
			pr.ops++
			p := op.p
			p.Observer = o
			start := time.Now()
			res, err := backend.Plan(ctx, op.c, p)
			end := time.Now()
			b.last[i], b.lastOps[i] = res, pr.ops
			if err == nil {
				err = checkResult(op.c, res)
			}
			sums[i].err = err
			if err == nil {
				sums[i].final = stageReport(res.Stages[len(res.Stages)-1])
				if tr != nil {
					traceStages(tr, pr.ops, start, end, res.Stages)
				}
			}
		}
		pr.latency = append(pr.latency, time.Since(t0))
		passes = append(passes, sums)
		if time.Since(w.start) >= b.cfg.window {
			break
		}
	}
	pr.elapsed, pr.proc = w.close()

	// Verification: every plan succeeded and every pass reproduced the
	// first pass's final stats exactly.
	for pi, sums := range passes {
		for i, s := range sums {
			switch {
			case s.err != nil:
				pr.fail("pass %d %s: %v", pi, b.ops[i].name, s.err)
			case passes[0][i].err == nil && s.final != passes[0][i].final:
				pr.fail("pass %d %s: final stats differ from pass 0", pi, b.ops[i].name)
			}
		}
	}
	for _, s := range passes[0] {
		if s.err == nil {
			pr.quality.add(s.final)
		}
	}
	pr.info = map[string]any{"passes": len(passes)}
	if m != nil {
		var buf bytes.Buffer
		err := m.WriteJSON(&buf)
		if err != nil {
			return nil, err
		}
		if pr.telemetry, err = parseMetrics(&buf); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// traceStages records a plan span and, inside it, one child span per stage
// laid end to end before the plan's end, from the stage times the planner
// reports (Result.Stages[i].CPU).
func traceStages(tr *tracer, op int, start, end time.Time, stages []core.StageStats) {
	id := tr.add(op, 0, "core.plan", start, end)
	var total time.Duration
	for _, s := range stages {
		total += s.CPU
	}
	at := end.Add(-total)
	for _, s := range stages {
		tr.add(op, id, fmt.Sprintf("core.stage%d", s.Stage), at, at.Add(s.CPU))
		at = at.Add(s.CPU)
	}
}

// checkResult verifies a plan's structural invariants: one route and one
// assignment per net, the four rabid stages, a final buffer count that
// matches the assignments, and finite stats.
func checkResult(c *netlist.Circuit, res *core.Result) error {
	if len(res.Routes) != len(c.Nets) || len(res.Assignments) != len(c.Nets) {
		return fmt.Errorf("%d routes, %d assignments for %d nets", len(res.Routes), len(res.Assignments), len(c.Nets))
	}
	if len(res.Stages) != 4 {
		return fmt.Errorf("%d stages, want 4", len(res.Stages))
	}
	final := res.Stages[len(res.Stages)-1]
	if final.Buffers != res.TotalBuffers() {
		return fmt.Errorf("final stage reports %d buffers, assignments hold %d", final.Buffers, res.TotalBuffers())
	}
	return checkStage(stageReport(final))
}

// checkStage rejects stats a correct plan cannot have.
func checkStage(s core.StageReport) error {
	for _, v := range []float64{s.WireMax, s.WireAvg, s.BufMax, s.BufAvg, s.WirelenMm, s.MaxDelayPs, s.AvgDelayPs} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("stage %d: stat %v out of range", s.Stage, v)
		}
	}
	if s.Buffers < 0 || s.Fails < 0 || s.Overflows < 0 || s.WirelenMm == 0 {
		return fmt.Errorf("stage %d: impossible counts %+v", s.Stage, s)
	}
	return nil
}

// stageReport converts stage stats to their report form without the
// wall-clock column, so equal plans give equal values.
func stageReport(s core.StageStats) core.StageReport {
	return core.StageReport{
		Stage: s.Stage, WireMax: s.WireMax, WireAvg: s.WireAvg, Overflows: s.Overflows,
		BufMax: s.BufMax, BufAvg: s.BufAvg, Buffers: s.Buffers, Fails: s.Fails,
		WirelenMm: s.WirelenMm, MaxDelayPs: s.MaxDelayPs, AvgDelayPs: s.AvgDelayPs,
	}
}

// planResponse mirrors the body /v1/plan serializes.
type planResponse struct {
	Key    string       `json:"key"`
	Report *core.Report `json:"report"`
}

// probe times decode, normalize, key, report and encode on the last pass's
// circuits and results, outside the window, and derives the per-layer
// metrics from the traced pass's telemetry.
func (b *suiteBench) probe(tr *tracer, pr *passResult) (map[string]metric, error) {
	var lt layerTimes
	for i, op := range b.ops {
		res := b.last[i]
		if res == nil {
			continue
		}
		_, _, key, err := lt.edge(tr, b.lastOps[i], op.json, op.p, len(op.json))
		if err == nil {
			_, err = lt.respond(tr, b.lastOps[i], res, key)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", op.name, err)
		}
	}
	m := pipelineLayers(pr.telemetry, pr.ops)
	lt.addTo(m)
	// The suite never crosses the service edge.
	serverLayers(m, metricsDoc{}, 0, 0)
	return m, nil
}
