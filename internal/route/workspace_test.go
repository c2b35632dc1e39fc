package route

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// treesEqual compares the full observable state of two route trees.
func treesEqual(a, b *rtree.Tree) bool {
	if len(a.Tile) != len(b.Tile) || len(a.Parent) != len(b.Parent) || len(a.SinkNode) != len(b.SinkNode) {
		return false
	}
	for i := range a.Tile {
		if a.Tile[i] != b.Tile[i] || a.Parent[i] != b.Parent[i] {
			return false
		}
	}
	for i := range a.SinkNode {
		if a.SinkNode[i] != b.SinkNode[i] {
			return false
		}
	}
	return true
}

// cloneRoutes deep-copies a routes slice so two kernels can run from the
// same starting state.
func cloneRoutes(routes []*rtree.Tree) []*rtree.Tree {
	out := make([]*rtree.Tree, len(routes))
	for i, rt := range routes {
		c := &rtree.Tree{
			Tile:     append([]geom.Pt(nil), rt.Tile...),
			Parent:   append([]int(nil), rt.Parent...),
			SinkNode: append([]int(nil), rt.SinkNode...),
		}
		out[i] = c
	}
	return out
}

// TestWorkspaceReuseEquivalence is the mechanical-equivalence check for the
// workspace kernel itself: routing every workload net with one shared,
// progressively dirtier Workspace must produce node-for-node identical trees
// to routing each net with a fresh (nil) workspace. Epoch stamping, the tree
// free list, and the edge-cost memo are all pure mechanism — any state
// leaking between calls shows up here as a diverged tree.
func TestWorkspaceReuseEquivalence(t *testing.T) {
	gA, netsA, _, _ := benchWorkload(t)
	gB, netsB, _, _ := benchWorkload(t)
	ws := NewWorkspace()
	for i := range netsA {
		fresh, errA := Reroute(gA, netsA[i], DefaultOptions(), nil)
		shared, errB := Reroute(gB, netsB[i], DefaultOptions(), ws)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("net %d: error divergence: fresh=%v shared=%v", i, errA, errB)
		}
		if errA != nil {
			continue
		}
		if !treesEqual(fresh, shared) {
			t.Fatalf("net %d: shared-workspace tree differs from fresh-workspace tree", i)
		}
		// Keep usage in lockstep so later nets see identical congestion.
		AddUsage(gA, fresh)
		AddUsage(gB, shared)
	}
}

// TestRecycledTreeReuseEquivalence drives the free-list path specifically:
// trees recycled from earlier nets must come back fully reset, with no
// carcass nodes influencing the next route.
func TestRecycledTreeReuseEquivalence(t *testing.T) {
	gA, netsA, _, _ := benchWorkload(t)
	gB, netsB, _, _ := benchWorkload(t)
	ws := NewWorkspace()
	for i := range netsA {
		fresh, errA := Reroute(gA, netsA[i], DefaultOptions(), nil)
		shared, errB := Reroute(gB, netsB[i], DefaultOptions(), ws)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("net %d: error divergence: fresh=%v shared=%v", i, errA, errB)
		}
		if errA != nil {
			continue
		}
		if !treesEqual(fresh, shared) {
			t.Fatalf("net %d: recycled-tree route differs from fresh route", i)
		}
		// Neither tree is retained: donate the shared one so net i+1 builds
		// into net i's recycled carcass.
		ws.Recycle(shared)
	}
}

// TestRecycleNilSafe: Recycle must tolerate nil so error paths can donate
// unconditionally.
func TestRecycleNilSafe(t *testing.T) {
	ws := NewWorkspace()
	ws.Recycle(nil) // must not panic
	if got := len(ws.free); got != 0 {
		t.Fatalf("nil recycle grew the free list to %d", got)
	}
}

// TestPoolNilSafe: a nil *Pool hands out fresh workspaces and swallows puts,
// so callers never need to guard.
func TestPoolNilSafe(t *testing.T) {
	var pl *Pool
	ws := pl.Get()
	if ws == nil {
		t.Fatal("nil pool returned nil workspace")
	}
	pl.Put(ws) // must not panic
}

// TestBlockedMaskZeroedOnGrowth: the Stage-4 mask must arrive all-false on
// first use and after growth, since callers only clear the bits they set.
func TestBlockedMaskZeroedOnGrowth(t *testing.T) {
	ws := NewWorkspace()
	m := ws.BlockedMask(8)
	for i, v := range m {
		if v {
			t.Fatalf("fresh mask bit %d set", i)
		}
	}
	m[3] = true
	m[3] = false // caller discipline: clear what you set
	big := ws.BlockedMask(64)
	if len(big) != 64 {
		t.Fatalf("mask length %d, want 64", len(big))
	}
	for i, v := range big {
		if v {
			t.Fatalf("grown mask bit %d set", i)
		}
	}
}
