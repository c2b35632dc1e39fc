package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/rtree"
	"repro/internal/tile"
)

// mkTree builds a route tree from a parent map.
func mkTree(t *testing.T, src geom.Pt, parent map[geom.Pt]geom.Pt, sinks []geom.Pt) *rtree.Tree {
	t.Helper()
	rt, err := rtree.FromParentMap(src, parent, sinks)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// spliceGrid is a plain grid large enough for the hand-built trees below.
func spliceGrid(t testing.TB) *tile.Graph {
	t.Helper()
	g, err := tile.New(8, 8, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSpliceStraightDetour(t *testing.T) {
	// Chain (0,0)..(4,0); replace the whole two-path with a detour through
	// row 1.
	parent := map[geom.Pt]geom.Pt{}
	for x := 1; x <= 4; x++ {
		parent[geom.Pt{X: x}] = geom.Pt{X: x - 1}
	}
	rt := mkTree(t, geom.Pt{}, parent, []geom.Pt{{X: 4}})
	paths := rt.TwoPaths()
	if len(paths) != 1 {
		t.Fatalf("two-paths: %v", paths)
	}
	newPath := []geom.Pt{
		{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}, {X: 2, Y: 1}, {X: 3, Y: 1}, {X: 4, Y: 1}, {X: 4, Y: 0},
	}
	var sp splicer
	nt, err := sp.spliceTwoPath(spliceGrid(t), rt, paths[0], newPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := nt.Validate(nil); err != nil {
		t.Fatal(err)
	}
	// 7 tiles on the detour -> 6 edges.
	if nt.NumEdges() != 6 {
		t.Errorf("spliced tree has %d edges, want 6", nt.NumEdges())
	}
	if nt.Tile[nt.SinkNode[0]] != (geom.Pt{X: 4}) {
		t.Error("sink lost")
	}
	if nt.Tile[0] != (geom.Pt{}) {
		t.Error("root moved")
	}
}

func TestSplicePreservesSubtrees(t *testing.T) {
	// Y: trunk (0,1)->(2,1), branches to sinks (4,1) and (2,3). Replace
	// the trunk two-path by a detour through row 0; both branches must
	// survive.
	parent := map[geom.Pt]geom.Pt{}
	for x := 1; x <= 4; x++ {
		parent[geom.Pt{X: x, Y: 1}] = geom.Pt{X: x - 1, Y: 1}
	}
	parent[geom.Pt{X: 2, Y: 2}] = geom.Pt{X: 2, Y: 1}
	parent[geom.Pt{X: 2, Y: 3}] = geom.Pt{X: 2, Y: 2}
	rt := mkTree(t, geom.Pt{Y: 1}, parent, []geom.Pt{{X: 4, Y: 1}, {X: 2, Y: 3}})
	// The trunk two-path runs from the root to the branch node (2,1).
	var trunk []int
	for _, p := range rt.TwoPaths() {
		if p[0] == 0 && rt.Tile[p[len(p)-1]] == (geom.Pt{X: 2, Y: 1}) {
			trunk = p
		}
	}
	if trunk == nil {
		t.Fatal("trunk two-path not found")
	}
	newPath := []geom.Pt{
		{X: 0, Y: 1}, {X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 1},
	}
	var sp splicer
	nt, err := sp.spliceTwoPath(spliceGrid(t), rt, trunk, newPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := nt.Validate(nil); err != nil {
		t.Fatal(err)
	}
	if len(nt.SinkNode) != 2 {
		t.Fatal("sink count changed")
	}
	for i, want := range []geom.Pt{{X: 4, Y: 1}, {X: 2, Y: 3}} {
		if nt.Tile[nt.SinkNode[i]] != want {
			t.Errorf("sink %d at %v, want %v", i, nt.Tile[nt.SinkNode[i]], want)
		}
	}
	// The old interior (1,1) must be gone.
	for _, tl := range nt.Tile {
		if tl == (geom.Pt{X: 1, Y: 1}) {
			t.Error("old interior tile survived")
		}
	}
}

func TestSpliceRejectsWrongEndpoints(t *testing.T) {
	parent := map[geom.Pt]geom.Pt{{X: 1}: {}, {X: 2}: {X: 1}}
	rt := mkTree(t, geom.Pt{}, parent, []geom.Pt{{X: 2}})
	paths := rt.TwoPaths()
	bad := []geom.Pt{{X: 5, Y: 5}, {X: 2, Y: 0}}
	var sp splicer
	if _, err := sp.spliceTwoPath(spliceGrid(t), rt, paths[0], bad); err == nil {
		t.Error("wrong head accepted")
	}
}

func TestSpliceIdentityPath(t *testing.T) {
	// Reconnecting with the original path must reproduce the same tree.
	parent := map[geom.Pt]geom.Pt{}
	for x := 1; x <= 3; x++ {
		parent[geom.Pt{X: x}] = geom.Pt{X: x - 1}
	}
	rt := mkTree(t, geom.Pt{}, parent, []geom.Pt{{X: 3}})
	paths := rt.TwoPaths()
	same := rt.PathTiles(paths[0])
	var sp splicer
	nt, err := sp.spliceTwoPath(spliceGrid(t), rt, paths[0], same)
	if err != nil {
		t.Fatal(err)
	}
	if nt.NumEdges() != rt.NumEdges() {
		t.Errorf("identity splice changed the tree: %d vs %d edges", nt.NumEdges(), rt.NumEdges())
	}
}

func TestSpliceSelfCrossingPathDedups(t *testing.T) {
	// A pathological reconnection that revisits a tile: the chain-anchor
	// logic must keep the result a tree.
	parent := map[geom.Pt]geom.Pt{}
	for x := 1; x <= 2; x++ {
		parent[geom.Pt{X: x}] = geom.Pt{X: x - 1}
	}
	rt := mkTree(t, geom.Pt{}, parent, []geom.Pt{{X: 2}})
	paths := rt.TwoPaths()
	// head (0,0) .. wanders, revisits (1,1) .. tail (2,0)
	newPath := []geom.Pt{
		{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 2}, {X: 1, Y: 1}, {X: 2, Y: 1}, {X: 2, Y: 0},
	}
	var sp splicer
	nt, err := sp.spliceTwoPath(spliceGrid(t), rt, paths[0], newPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := nt.Validate(nil); err != nil {
		t.Fatalf("self-crossing splice broke the tree: %v", err)
	}
	if nt.Tile[nt.SinkNode[0]] != (geom.Pt{X: 2}) {
		t.Error("sink lost")
	}
}

func TestSpliceRejectsCycle(t *testing.T) {
	// Chain (0,0)->(1,0)->(2,0)->(3,0) with sinks at (2,0) and (3,0).
	// Reconnecting the first two-path (tail (2,0)) through the tail's own
	// child (3,0) would make the tail its own ancestor: the splice must
	// fail instead of looping.
	parent := map[geom.Pt]geom.Pt{}
	for x := 1; x <= 3; x++ {
		parent[geom.Pt{X: x}] = geom.Pt{X: x - 1}
	}
	rt := mkTree(t, geom.Pt{}, parent, []geom.Pt{{X: 2}, {X: 3}})
	pick := rt.TwoPaths()[0]
	if rt.Tile[pick[len(pick)-1]] != (geom.Pt{X: 2}) {
		t.Fatalf("unexpected first two-path %v", rt.PathTiles(pick))
	}
	newPath := []geom.Pt{{X: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}, {X: 2, Y: 1}, {X: 3, Y: 1}, {X: 3}, {X: 2}}
	var sp splicer
	if _, err := sp.spliceTwoPath(spliceGrid(t), rt, pick, newPath); err == nil {
		t.Fatal("cyclic reconnection accepted")
	}
}

// spliceReference is the map-based splice the workspace version replaced:
// build the parent map, assemble with rtree.FromParentMap, then Prune. It
// is the oracle for node numbering.
func spliceReference(rt *rtree.Tree, pick []int, newPath []geom.Pt) (*rtree.Tree, error) {
	head := rt.Tile[pick[0]]
	tail := rt.Tile[pick[len(pick)-1]]
	if newPath[0] != head || newPath[len(newPath)-1] != tail {
		return nil, fmt.Errorf("endpoints %v..%v, want %v..%v", newPath[0], newPath[len(newPath)-1], head, tail)
	}
	interior := map[geom.Pt]bool{}
	for _, v := range pick[1 : len(pick)-1] {
		interior[rt.Tile[v]] = true
	}
	parent := map[geom.Pt]geom.Pt{}
	for v := 1; v < rt.NumNodes(); v++ {
		t := rt.Tile[v]
		if interior[t] || t == tail {
			continue
		}
		parent[t] = rt.Tile[rt.Parent[v]]
	}
	prev := head
	for _, t := range newPath[1:] {
		if t == tail {
			parent[tail] = prev
			prev = t
			continue
		}
		if _, ok := parent[t]; !ok && t != rt.Tile[0] {
			parent[t] = prev
		}
		prev = t
	}
	sinks := make([]geom.Pt, len(rt.SinkNode))
	for k, sn := range rt.SinkNode {
		sinks[k] = rt.Tile[sn]
	}
	nt, err := rtree.FromParentMap(rt.Tile[0], parent, sinks)
	if err != nil {
		return nil, err
	}
	return nt.Prune(), nil
}

// sameTree compares two route trees node for node.
func sameTree(a, b *rtree.Tree) bool {
	if len(a.Tile) != len(b.Tile) || len(a.SinkNode) != len(b.SinkNode) {
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

// loopyPath inserts random out-and-back detours into path, stepping onto
// tiles allowed by ok: the result still runs head..tail over grid edges
// but revisits tiles, which leaves sinkless stubs for Prune.
func loopyPath(r *rand.Rand, g *tile.Graph, path []geom.Pt, ok func(geom.Pt) bool) []geom.Pt {
	var out []geom.Pt
	for i, p := range path {
		out = append(out, p)
		if i == len(path)-1 || r.Intn(3) != 0 {
			continue
		}
		d := []geom.Pt{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}}[r.Intn(4)]
		q := geom.Pt{X: p.X + d.X, Y: p.Y + d.Y}
		if g.InGrid(q) && ok(q) {
			out = append(out, q, p)
		}
	}
	return out
}

// TestSpliceMatchesMapReference checks the workspace splice against the
// map-based reference on real Stage-4 reconnections (BufferAwarePath under
// the blocked tree mask) and on loopy variants of them that revisit tiles,
// over random nets on random grids: the trees must agree node for node,
// including after Prune renumbering.
func TestSpliceMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	var sp splicer
	ws := route.NewWorkspace()
	pruned := 0
	for trial := 0; trial < 120; trial++ {
		w, h := 4+r.Intn(10), 4+r.Intn(10)
		g, err := tile.New(w, h, nil, 1+r.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		pin := func() netlist.Pin { return netlist.Pin{Tile: geom.Pt{X: r.Intn(w), Y: r.Intn(h)}} }
		n := &netlist.Net{ID: trial, Name: "s", L: 4, Source: pin()}
		for k := 0; k <= r.Intn(4); k++ {
			n.Sinks = append(n.Sinks, pin())
		}
		rt, err := route.Reroute(g, n, route.DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, pick := range rt.TwoPaths() {
			inTree := map[geom.Pt]bool{}
			for _, p := range rt.Tile {
				inTree[p] = true
			}
			for _, v := range pick[1 : len(pick)-1] {
				inTree[rt.Tile[v]] = false
			}
			head, tail := rt.Tile[pick[0]], rt.Tile[pick[len(pick)-1]]
			inTree[head], inTree[tail] = false, false
			blocked := make([]bool, g.NumTiles())
			for p, b := range inTree {
				blocked[g.TileIndex(p)] = b
			}
			path, err := route.BufferAwarePath(g, tail, head, 1+r.Intn(6), blocked, route.DefaultOptions(), ws)
			if err != nil {
				continue
			}
			free := func(p geom.Pt) bool { return !inTree[p] }
			for _, np := range [][]geom.Pt{append([]geom.Pt(nil), path...), loopyPath(r, g, path, free)} {
				want, werr := spliceReference(rt, pick, np)
				got, gerr := sp.spliceTwoPath(g, rt, pick, np)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("trial %d: splice err=%v, reference err=%v", trial, gerr, werr)
				}
				if werr != nil {
					continue
				}
				if !sameTree(got, want) {
					t.Fatalf("trial %d path %v:\n got  %v %v %v\n want %v %v %v", trial, np,
						got.Tile, got.Parent, got.SinkNode, want.Tile, want.Parent, want.SinkNode)
				}
				if want.NumNodes() < len(np) {
					pruned++
				}
				sp.recycle(got)
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no case exercised the prune fallback")
	}
}

// TestSpliceZeroAllocSteadyState pins the splice's allocation contract:
// with its arrays sized and the previous result recycled as the spare, a
// splice allocates nothing.
func TestSpliceZeroAllocSteadyState(t *testing.T) {
	parent := map[geom.Pt]geom.Pt{}
	for x := 1; x <= 4; x++ {
		parent[geom.Pt{X: x}] = geom.Pt{X: x - 1}
	}
	rt := mkTree(t, geom.Pt{}, parent, []geom.Pt{{X: 4}})
	pick := rt.TwoPaths()[0]
	newPath := []geom.Pt{
		{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}, {X: 2, Y: 1}, {X: 3, Y: 1}, {X: 4, Y: 1}, {X: 4, Y: 0},
	}
	g := spliceGrid(t)
	var sp splicer
	splice := func() {
		nt, err := sp.spliceTwoPath(g, rt, pick, newPath)
		if err != nil {
			t.Fatal(err)
		}
		sp.recycle(nt)
	}
	splice() // warm: sizes the arrays and leaves a spare
	if avg := testing.AllocsPerRun(100, splice); avg != 0 {
		t.Fatalf("spliceTwoPath with a warmed splicer: %v allocs/run, want 0", avg)
	}
}
