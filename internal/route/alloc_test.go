package route

import (
	"context"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
)

// TestRerouteZeroAllocSteadyState enforces the headline contract for every
// search kernel: with a warmed Workspace and a nil observer, Reroute
// performs zero heap allocations per call. This is a test, not just a
// benchmark, so a regression fails CI rather than only shifting a number
// nobody reads. The dial kernel's bucket array and the astar kernel's goal
// buffers are workspace-owned and sized on the warm-up calls, so they are
// held to the same exact-zero bound as the heap.
func TestRerouteZeroAllocSteadyState(t *testing.T) {
	for _, kernel := range Kernels() {
		t.Run(kernel, func(t *testing.T) {
			g, nets, routes, _ := benchWorkload(t)
			n := nets[17]
			RemoveUsage(g, routes[17])
			opt := DefaultOptions()
			opt.Kernel = kernel
			ws := NewWorkspace()
			// Warm: first call sizes every workspace array and the recycled tree.
			for i := 0; i < 3; i++ {
				rt, err := Reroute(g, n, opt, ws)
				if err != nil {
					t.Fatal(err)
				}
				ws.Recycle(rt)
			}
			avg := testing.AllocsPerRun(200, func() {
				rt, err := Reroute(g, n, opt, ws)
				if err != nil {
					t.Fatal(err)
				}
				ws.Recycle(rt)
			})
			if avg != 0 {
				t.Fatalf("Reroute[%s] with warmed workspace: %v allocs/run, want 0", kernel, avg)
			}
		})
	}
}

// TestRipupPassAllocBound: a full Nair pass over 120 nets must stay O(1)
// allocations — independent of net count — once the workspace and the
// recycled-tree free list are warm, under every kernel. The pre-workspace
// kernel allocated ~100k times per pass on this workload.
func TestRipupPassAllocBound(t *testing.T) {
	for _, kernel := range Kernels() {
		t.Run(kernel, func(t *testing.T) {
			g, nets, routes, order := benchWorkload(t)
			opt := DefaultOptions()
			opt.Kernel = kernel
			ws := NewWorkspace()
			// Warm until the amortized growth settles: dial buckets keep
			// growing for a few passes while congestion drifts (keys land in
			// previously-untouched buckets), then reach a fixed point.
			for i := 0; i < 6; i++ {
				if _, err := RipupPass(g, nets, routes, order, opt, ws); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(20, func() {
				if _, err := RipupPass(g, nets, routes, order, opt, ws); err != nil {
					t.Fatal(err)
				}
			})
			// O(1) bound: a handful of allocations (occasional amortized slice
			// regrowth) is acceptable; anything scaling with the 120 nets is not.
			if avg > 8 {
				t.Fatalf("RipupPass[%s] with warmed workspace: %v allocs/run, want <= 8", kernel, avg)
			}
		})
	}
}

// TestBufferAwarePathZeroAllocSteadyState: Stage 4's maze search shares the
// same workspace discipline as Reroute, under every kernel (astar arms its
// residual-scan heuristic here, so this also pins that scan as alloc-free).
// The instance is one where dominance pruning fires — the search pops
// fewer states than the unpruned reference — so the pruning path is held
// to the same zero-alloc bound.
func TestBufferAwarePathZeroAllocSteadyState(t *testing.T) {
	for _, kernel := range Kernels() {
		t.Run(kernel, func(t *testing.T) {
			g, _, routes, _ := benchWorkload(t)
			tail, head := geom.Pt{X: 29, Y: 29}, geom.Pt{X: 2, Y: 2}
			blocked := make([]bool, g.NumTiles())
			for _, p := range routes[3].Tile {
				blocked[g.TileIndex(p)] = true
			}
			blocked[g.TileIndex(tail)] = false
			blocked[g.TileIndex(head)] = false
			opt := DefaultOptions()
			opt.Kernel = kernel
			probe := opt
			m := obs.NewMetrics()
			probe.Obs = m
			if _, err := BufferAwarePath(g, tail, head, 6, blocked, probe, NewWorkspace()); err != nil {
				t.Fatal(err)
			}
			_, _, refPops, err := bapReference(g, tail, head, 6, blocked, opt, NewWorkspace())
			if err != nil {
				t.Fatal(err)
			}
			if pops := int(m.Counter("route.bap.pops")); pops >= refPops {
				t.Fatalf("BufferAwarePath[%s]: %d pops, unpruned reference %d: pruning does not fire on this instance", kernel, pops, refPops)
			}
			ws := NewWorkspace()
			for i := 0; i < 2; i++ {
				if _, err := BufferAwarePath(g, tail, head, 6, blocked, opt, ws); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(100, func() {
				if _, err := BufferAwarePath(g, tail, head, 6, blocked, opt, ws); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("BufferAwarePath[%s] with warmed workspace: %v allocs/run, want 0", kernel, avg)
			}
		})
	}
}

// TestReduceCongestionAllocBound extends TestRipupPassAllocBound from the
// bare pass to the Stage-2 entry point: a multi-pass ReduceCongestionCtx
// call (per-pass overflow checks and Options copies included) stays O(1)
// allocations with a warmed workspace and a nil observer.
func TestReduceCongestionAllocBound(t *testing.T) {
	const maxPasses = 3
	for _, kernel := range Kernels() {
		t.Run(kernel, func(t *testing.T) {
			g, nets, routes, order := benchWorkload(t)
			opt := DefaultOptions()
			opt.Kernel = kernel
			ws := NewWorkspace()
			ctx := context.Background()
			// Warm like TestRipupPassAllocBound (two calls of three passes).
			for i := 0; i < 2; i++ {
				if _, err := ReduceCongestionCtx(ctx, g, nets, routes, order, maxPasses, opt, ws); err != nil {
					t.Fatal(err)
				}
			}
			passes := 0
			avg := testing.AllocsPerRun(10, func() {
				n, err := ReduceCongestionCtx(ctx, g, nets, routes, order, maxPasses, opt, ws)
				if err != nil {
					t.Fatal(err)
				}
				passes += n
			})
			// The workload must stay congested, or the bound would only
			// cover the zero-pass early exit.
			if passes < 11*maxPasses {
				t.Fatalf("ReduceCongestionCtx[%s] ran %d passes over 11 calls, want every call to run %d", kernel, passes, maxPasses)
			}
			if avg > 8 {
				t.Fatalf("ReduceCongestionCtx[%s] with warmed workspace: %v allocs/run, want <= 8", kernel, avg)
			}
		})
	}
}
