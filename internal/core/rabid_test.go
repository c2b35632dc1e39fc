package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// smallCircuit builds a compact deterministic instance that runs fast.
func smallCircuit(t testing.TB, seed int64, nets, gridW, gridH, sitesPerTile, L int) *netlist.Circuit {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tileUm := 600.0
	c := &netlist.Circuit{
		Name:        "unit",
		GridW:       gridW,
		GridH:       gridH,
		TileUm:      tileUm,
		BufferSites: make([]int, gridW*gridH),
	}
	for i := range c.BufferSites {
		c.BufferSites[i] = sitesPerTile
	}
	pin := func() netlist.Pin {
		p := geom.FPt{X: (r.Float64() * float64(gridW)) * tileUm, Y: (r.Float64() * float64(gridH)) * tileUm}
		if p.X >= c.ChipW() {
			p.X = c.ChipW() - 1
		}
		if p.Y >= c.ChipH() {
			p.Y = c.ChipH() - 1
		}
		return netlist.Pin{Tile: c.TileOf(p), Pos: p}
	}
	for i := 0; i < nets; i++ {
		n := &netlist.Net{ID: i, Name: "n", Source: pin(), L: L}
		for s := 0; s <= r.Intn(3); s++ {
			n.Sinks = append(n.Sinks, pin())
		}
		c.Nets = append(c.Nets, n)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunFourStages(t *testing.T) {
	c := smallCircuit(t, 1, 30, 12, 12, 3, 4)
	res, err := Run(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 4 {
		t.Fatalf("got %d stages", len(res.Stages))
	}
	for i, s := range res.Stages {
		if s.Stage != i+1 {
			t.Errorf("stage %d labeled %d", i+1, s.Stage)
		}
	}
	// Stages 1-2 insert no buffers; stage 3 does.
	if res.Stages[0].Buffers != 0 || res.Stages[1].Buffers != 0 {
		t.Error("buffers before stage 3")
	}
	if res.Stages[2].Buffers == 0 {
		t.Error("stage 3 inserted no buffers")
	}
	if res.TotalBuffers() != res.Stages[3].Buffers {
		t.Errorf("TotalBuffers %d != stage-4 count %d", res.TotalBuffers(), res.Stages[3].Buffers)
	}
}

func TestConstraintsAfterRun(t *testing.T) {
	c := smallCircuit(t, 2, 40, 12, 12, 3, 4)
	res, err := Run(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Problem formulation: b(v) <= B(v) everywhere.
	g := res.Graph
	for v := 0; v < g.NumTiles(); v++ {
		if g.UsedSites(v) > g.Sites(v) {
			t.Fatalf("tile %d: %d buffers for %d sites", v, g.UsedSites(v), g.Sites(v))
		}
	}
	// Wire congestion satisfied after stages 2 and 4.
	if res.Stages[1].Overflows != 0 {
		t.Errorf("stage 2 left %d overflows", res.Stages[1].Overflows)
	}
	if res.Stages[3].Overflows != 0 {
		t.Errorf("stage 4 left %d overflows", res.Stages[3].Overflows)
	}
	// With plentiful sites everywhere, every net meets its constraint.
	if res.Stages[3].Fails != 0 {
		t.Errorf("%d nets fail with abundant sites", res.Stages[3].Fails)
	}
	// Accounting: graph usage equals total route edges.
	sum := 0
	for e := 0; e < g.NumEdges(); e++ {
		sum += g.Usage(e)
	}
	want := 0
	for _, rt := range res.Routes {
		want += rt.NumEdges()
	}
	if sum != want {
		t.Errorf("wire accounting drifted: %d registered, %d route edges", sum, want)
	}
	// Buffer accounting: graph buffers equal assignment buffers.
	used := 0
	for v := 0; v < g.NumTiles(); v++ {
		used += g.UsedSites(v)
	}
	if used != res.TotalBuffers() {
		t.Errorf("buffer accounting drifted: %d in graph, %d assigned", used, res.TotalBuffers())
	}
}

func TestBufferingReducesDelay(t *testing.T) {
	// Long nets on a large grid: stage 3 must cut delay sharply vs stage 2
	// (the paper's central Table II observation).
	c := smallCircuit(t, 3, 25, 20, 20, 4, 4)
	res, err := Run(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages[2].MaxDelayPs >= res.Stages[1].MaxDelayPs {
		t.Errorf("stage 3 max delay %.0fps did not improve on stage 2 %.0fps",
			res.Stages[2].MaxDelayPs, res.Stages[1].MaxDelayPs)
	}
	if res.Stages[2].AvgDelayPs >= res.Stages[1].AvgDelayPs {
		t.Errorf("stage 3 avg delay %.0fps did not improve on stage 2 %.0fps",
			res.Stages[2].AvgDelayPs, res.Stages[1].AvgDelayPs)
	}
}

func TestRouteTreesStayValid(t *testing.T) {
	c := smallCircuit(t, 4, 30, 10, 10, 2, 3)
	res, err := Run(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for i, rt := range res.Routes {
		if err := rt.Validate(res.Graph.InGrid); err != nil {
			t.Fatalf("net %d route invalid after run: %v", i, err)
		}
		if len(rt.SinkNode) != len(c.Nets[i].Sinks) {
			t.Fatalf("net %d lost sinks", i)
		}
		for k, s := range c.Nets[i].Sinks {
			if rt.Tile[rt.SinkNode[k]] != s.Tile {
				t.Fatalf("net %d sink %d moved", i, k)
			}
		}
		if rt.Tile[0] != c.Nets[i].Source.Tile {
			t.Fatalf("net %d root moved", i)
		}
	}
}

func TestScarceSitesProduceFails(t *testing.T) {
	// One buffer site in the whole grid and tight L: most nets must fail,
	// and b(v) <= B(v) must still hold.
	c := smallCircuit(t, 5, 15, 12, 12, 0, 2)
	c.BufferSites[60] = 1
	res, err := Run(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	final := res.Stages[len(res.Stages)-1]
	if final.Fails == 0 {
		t.Error("expected failures with a single buffer site")
	}
	if final.Buffers > 1 {
		t.Errorf("%d buffers committed for 1 site", final.Buffers)
	}
}

func TestStage4NotWorseOnFailsAndOverflow(t *testing.T) {
	c := smallCircuit(t, 6, 40, 14, 14, 2, 3)
	res, err := Run(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s3, s4 := res.Stages[2], res.Stages[3]
	if s4.Overflows > s3.Overflows {
		t.Errorf("stage 4 increased overflow %d -> %d", s3.Overflows, s4.Overflows)
	}
	if s4.Fails > s3.Fails {
		t.Errorf("stage 4 increased fails %d -> %d", s3.Fails, s4.Fails)
	}
}

func TestSkipStage4(t *testing.T) {
	c := smallCircuit(t, 7, 10, 8, 8, 2, 3)
	p := DefaultParams()
	p.SkipStage4 = true
	res, err := Run(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 3 {
		t.Errorf("SkipStage4 produced %d stages", len(res.Stages))
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	c := smallCircuit(t, 8, 5, 8, 8, 2, 3)
	c.Nets[0].L = 0
	if _, err := Run(c, DefaultParams()); err == nil {
		t.Error("invalid circuit accepted")
	}
	c = smallCircuit(t, 8, 5, 8, 8, 2, 3)
	p := DefaultParams()
	p.MaxRipupPasses = 0
	if _, err := Run(c, p); err == nil {
		t.Error("zero passes accepted")
	}

	// Router weights and alphas outside their domains fail in newState,
	// before any search runs: a negative or NaN edge cost makes the
	// wavefront's queue grow without bound, so without the check these
	// runs end in an out-of-memory crash, not an error.
	cases := []struct {
		field string
		set   func(p *Params)
	}{
		{"RouteOpt.LengthWeight", func(p *Params) { p.RouteOpt.LengthWeight = -1 }},
		{"RouteOpt.LengthWeight", func(p *Params) { p.RouteOpt.LengthWeight = math.NaN() }},
		{"RouteOpt.LengthWeight", func(p *Params) { p.RouteOpt.LengthWeight = math.Inf(1) }},
		{"RouteOpt.OverflowPenalty", func(p *Params) { p.RouteOpt.OverflowPenalty = -1 }},
		{"RouteOpt.OverflowPenalty", func(p *Params) { p.RouteOpt.OverflowPenalty = math.NaN() }},
		{"RouteOpt.OverflowPenalty", func(p *Params) { p.RouteOpt.OverflowPenalty = math.Inf(1) }},
		{"core: Alpha", func(p *Params) { p.Alpha = -0.1 }},
		{"core: Alpha", func(p *Params) { p.Alpha = 1.5 }},
		{"core: Alpha", func(p *Params) { p.Alpha = math.NaN() }},
		{"RouteOpt.Alpha", func(p *Params) { p.RouteOpt.Alpha = -0.1 }},
		{"RouteOpt.Alpha", func(p *Params) { p.RouteOpt.Alpha = 1.5 }},
		{"RouteOpt.Alpha", func(p *Params) { p.RouteOpt.Alpha = math.NaN() }},
		{"Capacity", func(p *Params) { p.Capacity = -1 }},
		{"Capacity", func(p *Params) { p.Capacity = math.MaxInt32 + 1 }},
		{"TargetStage1Avg", func(p *Params) { p.TargetStage1Avg = -0.25 }},
		{"TargetStage1Avg", func(p *Params) { p.TargetStage1Avg = math.NaN() }},
		{"TargetStage1Avg", func(p *Params) { p.TargetStage1Avg = math.Inf(1) }},
		{"TargetStage1Avg", func(p *Params) { p.TargetStage1Avg = math.Inf(-1) }},
	}
	for _, tc := range cases {
		p := DefaultParams()
		tc.set(&p)
		// Validate first: if it ever stopped rejecting the value, Run
		// below would exhaust memory instead of failing this test.
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Fatalf("%s: Validate = %v, want an error naming the field", tc.field, err)
		}
		if _, err := Run(c, p); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Run = %v, want the Validate error", tc.field, err)
		}
	}
	// The domain edges are legal.
	p = DefaultParams()
	p.Alpha, p.RouteOpt.Alpha = 0, 1
	p.RouteOpt.LengthWeight, p.RouteOpt.OverflowPenalty = 0, 0
	p.Capacity, p.TargetStage1Avg = math.MaxInt32, 0
	if err := p.Validate(); err != nil {
		t.Errorf("boundary values rejected: %v", err)
	}
	// A vanishing calibration target plans the least congested graph the
	// capacity range allows, not (as the wrapped float-to-int conversion
	// once did) a capacity of 1 and a maximally congested one.
	p = DefaultParams()
	p.TargetStage1Avg = 1e-300
	p.SkipStage4 = true
	res, err := Run(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Capacity != math.MaxInt32 {
		t.Errorf("TargetStage1Avg 1e-300: capacity %d, want %d", res.Capacity, math.MaxInt32)
	}
}

func TestRunOnGeneratedBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark in -short mode")
	}
	spec, err := floorplan.BySuiteName("apte")
	if err != nil {
		t.Fatal(err)
	}
	c, err := floorplan.Generate(spec, floorplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	final := res.Stages[3]
	if final.Overflows != 0 {
		t.Errorf("apte: %d overflows remain", final.Overflows)
	}
	if final.Buffers == 0 {
		t.Error("apte: no buffers inserted")
	}
	if final.BufMax > 1.0 {
		t.Errorf("apte: buffer congestion %v > 1", final.BufMax)
	}
	// The paper's qualitative claim: buffering cuts delay well below the
	// congestion-routed unbuffered solution.
	if final.MaxDelayPs >= res.Stages[1].MaxDelayPs {
		t.Errorf("final max delay %.0f >= stage 2 %.0f", final.MaxDelayPs, res.Stages[1].MaxDelayPs)
	}
}
