package core

import (
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/tile"
)

// splicer is the reusable scratch of spliceTwoPath. Its per-tile arrays are
// stamped with a per-splice epoch — a stale stamp reads as unset — so a
// splice costs O(tree) rather than O(grid) and allocates nothing once the
// arrays are sized. spare is a dead route tree whose storage backs the next
// splice's result (see recycle). The zero value is ready to use; one
// splicer serves one goroutine.
type splicer struct {
	epoch   uint64
	drop    []uint64 // == epoch: the tile is on the ripped interior
	pstamp  []uint64 // == epoch: parent[t] is set
	parent  []int32  // tile -> parent tile in the spliced tree
	nstamp  []uint64 // == epoch: nodeIdx[t] is set
	nodeIdx []int32  // tile -> node index in the spliced tree
	keys    []int32  // tiles holding a parent entry
	stack   []int32  // pending chain during parent-first insertion
	cnt     []int32  // scratch for rtree.Tree.HasPrunableLeaf
	spare   *rtree.Tree
}

// begin opens a splice over a grid of n tiles: bumps the epoch and sizes
// the per-tile arrays. Fresh entries carry stamp zero, which no epoch
// equals.
func (sp *splicer) begin(n int) {
	sp.epoch++
	if len(sp.pstamp) < n {
		sp.drop = make([]uint64, n)
		sp.pstamp = make([]uint64, n)
		sp.parent = make([]int32, n)
		sp.nstamp = make([]uint64, n)
		sp.nodeIdx = make([]int32, n)
	}
	sp.keys = sp.keys[:0]
}

// setParent records parent tile p for tile t, registering t as a key on
// first set.
func (sp *splicer) setParent(t, p int) {
	if sp.pstamp[t] != sp.epoch {
		sp.pstamp[t] = sp.epoch
		//rabid:allow narrowcast tile indices are < NumTiles <= MaxInt32, enforced by tile.New
		sp.keys = append(sp.keys, int32(t))
	}
	//rabid:allow narrowcast tile indices are < NumTiles <= MaxInt32, enforced by tile.New
	sp.parent[t] = int32(p)
}

// recycle donates a dead route tree's storage to the next splice. The
// caller must hold the only reference.
func (sp *splicer) recycle(rt *rtree.Tree) {
	rt.Reset()
	sp.spare = rt
}

// spliceTwoPath rebuilds the route tree with the interior of the two-path
// `pick` replaced by newPath (which runs head..tail inclusive, over tiles
// of g). The old tree's edges outside the interior are kept, the tail is
// re-parented onto newPath, and a newPath tile already in the tree keeps
// its parent.
//
// The result is node for node what rtree.FromParentMap followed by Prune
// builds from the same parent map: tiles are inserted parent-first in
// ascending tile-index order, which for row-major indices is exactly the
// (Y, X) key order FromParentMap sorts into. The returned tree takes the
// spare's storage; with the arrays sized and a spare recycled, a splice
// allocates nothing.
func (sp *splicer) spliceTwoPath(g *tile.Graph, rt *rtree.Tree, pick []int, newPath []geom.Pt) (*rtree.Tree, error) {
	head := rt.Tile[pick[0]]
	tail := rt.Tile[pick[len(pick)-1]]
	if newPath[0] != head || newPath[len(newPath)-1] != tail {
		return nil, fmt.Errorf("core: splice path endpoints %v..%v, want %v..%v", //rabid:allow allocfree cold abort path: fmt argument boxing only on a malformed reconnection
			newPath[0], newPath[len(newPath)-1], head, tail)
	}
	for _, p := range newPath {
		if !g.InGrid(p) {
			return nil, fmt.Errorf("core: splice path tile %v outside grid", p) //rabid:allow allocfree cold abort path: fmt argument boxing only on a malformed reconnection
		}
	}
	sp.begin(g.NumTiles()) //rabid:allow allocfree inlined grow path: the per-tile arrays reallocate only when the grid outgrows the splicer
	ep := sp.epoch
	for _, v := range pick[1 : len(pick)-1] {
		sp.drop[g.TileIndex(rt.Tile[v])] = ep
	}
	rootIdx, tailIdx := g.TileIndex(rt.Tile[0]), g.TileIndex(tail)
	for v := 1; v < rt.NumNodes(); v++ {
		t := g.TileIndex(rt.Tile[v])
		if sp.drop[t] == ep || t == tailIdx {
			continue // dropped interior; tail re-parents below
		}
		sp.setParent(t, g.TileIndex(rt.Tile[rt.Parent[v]]))
	}
	prev := g.TileIndex(head)
	for _, p := range newPath[1:] {
		t := g.TileIndex(p)
		if t == tailIdx || (sp.pstamp[t] != ep && t != rootIdx) {
			sp.setParent(t, prev)
		}
		prev = t
	}
	for _, k := range sp.keys {
		if a, b := g.TileAt(int(sp.parent[k])), g.TileAt(int(k)); a.Manhattan(b) != 1 {
			return nil, fmt.Errorf("core: splice parent %v not adjacent to %v", a, b) //rabid:allow allocfree cold abort path: fmt argument boxing only on a malformed reconnection
		}
	}
	slices.Sort(sp.keys)

	nt := sp.spare
	if nt == nil {
		nt = &rtree.Tree{} //rabid:allow allocfree cold path: a fresh tree only until the first recycle
	}
	nt.Reset()
	nt.Tile = append(nt.Tile, rt.Tile[0])
	nt.Parent = append(nt.Parent, -1)
	sp.nstamp[rootIdx] = ep
	sp.nodeIdx[rootIdx] = 0
	stack := sp.stack[:0]
	for _, k := range sp.keys {
		// Parent-first insertion, iteratively: climb to the nearest
		// inserted ancestor, then unwind. A chain longer than the key count
		// revisits a tile, so the parent map has a cycle.
		v := int(k)
		stack = stack[:0]
		for sp.nstamp[v] != ep {
			if sp.pstamp[v] != ep || len(stack) > len(sp.keys) {
				sp.stack = stack
				return nil, fmt.Errorf("core: splice leaves tile %v off the source's tree", g.TileAt(v)) //rabid:allow allocfree cold abort path: fmt argument boxing only on a malformed reconnection
			}
			//rabid:allow narrowcast v round-trips through int32 tile indices (tile.New caps the grid at MaxInt32 tiles)
			stack = append(stack, int32(v))
			v = int(sp.parent[v])
		}
		pi := int(sp.nodeIdx[v])
		for x := len(stack) - 1; x >= 0; x-- {
			u := int(stack[x])
			ni := len(nt.Tile)
			nt.Tile = append(nt.Tile, g.TileAt(u))
			nt.Parent = append(nt.Parent, pi)
			sp.nstamp[u] = ep
			//rabid:allow narrowcast node count <= NumTiles <= MaxInt32, enforced by tile.New
			sp.nodeIdx[u] = int32(ni)
			pi = ni
		}
	}
	sp.stack = stack
	for _, sn := range rt.SinkNode {
		t := g.TileIndex(rt.Tile[sn])
		if sp.nstamp[t] != ep {
			return nil, fmt.Errorf("core: splice drops sink tile %v", rt.Tile[sn]) //rabid:allow allocfree cold abort path: fmt argument boxing only on a malformed reconnection
		}
		nt.SinkNode = append(nt.SinkNode, int(sp.nodeIdx[t]))
	}
	sp.spare = nil
	var needs bool
	if needs, sp.cnt = nt.HasPrunableLeaf(sp.cnt); needs { //rabid:allow allocfree inlined grow path: the child-count scratch reallocates only until it fits the largest tree
		// A reconnection that revisits a tile leaves a sinkless stub;
		// Prune renumbers the kept nodes in their original order.
		pruned := nt.Prune()
		sp.recycle(nt)
		return pruned, nil
	}
	return nt, nil
}
