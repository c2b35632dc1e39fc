package rabid

import (
	"bytes"
	"testing"

	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/obs"
	"repro/internal/par"
)

// coarseGrids mirrors the fast tilings of the exp suite test so the whole
// benchmark suite stays tractable in unit-test time.
var coarseGrids = map[string][2]int{
	"apte": {10, 11}, "xerox": {10, 10}, "hp": {10, 10},
	"ami33": {11, 10}, "ami49": {10, 10}, "playout": {11, 10},
	"ac3": {10, 10}, "xc5": {10, 10}, "hc7": {10, 10}, "a9c3": {10, 10},
}

// TestWorkersDeterminismSuite is the tentpole's acceptance test: on every
// benchmark of the suite, Workers: 1 and Workers: N produce identical
// StageStats (CPU aside), stage for stage — the worker pool must be pure
// parallelism, never a behaviour change. The per-benchmark runs themselves
// fan out over the pool, so with -race this also race-checks the layer.
func TestWorkersDeterminismSuite(t *testing.T) {
	names := append(append([]string{}, exp.CBLNames...), exp.RandomNames...)
	type outcome struct {
		seq, par []StageStats
	}
	outcomes := make([]outcome, len(names))
	if err := par.ForEach(0, len(names), func(i int) error {
		name := names[i]
		g := coarseGrids[name]
		c, err := GenerateBenchmark(name, GenOptions{GridW: g[0], GridH: g[1]})
		if err != nil {
			return err
		}
		run := func(workers int) ([]StageStats, error) {
			p := BenchmarkParams(name)
			p.Workers = workers
			res, err := Run(c, p)
			if err != nil {
				return nil, err
			}
			return res.Stages, nil
		}
		if outcomes[i].seq, err = run(1); err != nil {
			return err
		}
		outcomes[i].par, err = run(4)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		seq, par4 := outcomes[i].seq, outcomes[i].par
		if len(seq) != len(par4) {
			t.Fatalf("%s: %d stages sequential vs %d parallel", name, len(seq), len(par4))
		}
		for si := range seq {
			a, b := seq[si], par4[si]
			a.CPU, b.CPU = 0, 0
			if a != b {
				t.Errorf("%s stage %d: Workers=1 and Workers=4 diverge:\n  seq: %+v\n  par: %+v",
					name, si+1, a, b)
			}
		}
	}
}

// TestSuiteFanoutMatchesSequential checks the experiment-suite layer the
// same way: running benchmarks concurrently must not change any of them.
func TestSuiteFanoutMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("suite fan-out in -short mode")
	}
	names := []string{"apte", "hp", "ac3"}
	runOne := func(name string) []StageStats {
		g := coarseGrids[name]
		res, err := exp.RunBenchmark(name, floorplan.Options{GridW: g[0], GridH: g[1]})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stages
	}
	want := make([][]StageStats, len(names))
	for i, name := range names {
		want[i] = runOne(name)
	}
	got := make([][]StageStats, len(names))
	if err := par.ForEach(len(names), len(names), func(i int) error {
		got[i] = runOne(names[i])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		for si := range want[i] {
			a, b := want[i][si], got[i][si]
			a.CPU, b.CPU = 0, 0
			if a != b {
				t.Errorf("%s stage %d: fan-out run diverges from sequential", name, si+1)
			}
		}
	}
}

// TestWorkersEventStreamDeterminismSuite extends TestWorkersDeterminismSuite
// from stage stats to everything a run exposes: every suite circuit, at
// Workers 1/2/4/8, must produce a byte-identical full result (stage stats,
// route trees node for node, buffer assignments) AND a byte-identical
// observer event stream. The Workers-dependent code is the per-net
// fan-out of Stage-1 construction, the delay refresh and the snapshot
// accounting, whose events are buffered per net and flushed in index
// order. Run under -race in CI, this doubles as the data-race gate for
// those fan-outs.
func TestWorkersEventStreamDeterminismSuite(t *testing.T) {
	workerCounts := []int{1, 2, 4, 8}
	names := append(append([]string{}, exp.CBLNames...), exp.RandomNames...)
	if testing.Short() {
		names = names[:3]
	}
	if err := par.ForEach(0, len(names), func(i int) error {
		name := names[i]
		g := coarseGrids[name]
		c, err := GenerateBenchmark(name, GenOptions{GridW: g[0], GridH: g[1]})
		if err != nil {
			return err
		}
		var refRes, refEvs []byte
		for _, workers := range workerCounts {
			var evBuf bytes.Buffer
			sink := obs.NewJSONLines(&evBuf)
			p := BenchmarkParams(name)
			p.Workers = workers
			p.Observer = sink
			res, err := Run(c, p)
			if err != nil {
				return err
			}
			if err := sink.Err(); err != nil {
				return err
			}
			rb := goldenBytes(t, res)
			if workers == workerCounts[0] {
				refRes, refEvs = rb, evBuf.Bytes()
				continue
			}
			if !bytes.Equal(rb, refRes) {
				t.Errorf("%s: Workers=%d result differs from Workers=1", name, workers)
			}
			if !bytes.Equal(evBuf.Bytes(), refEvs) {
				t.Errorf("%s: Workers=%d event stream differs from Workers=1", name, workers)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
