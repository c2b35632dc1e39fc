// Package route implements the tile-graph routing used by Stages 2 and 4:
// a Prim–Dijkstra-flavored wavefront expansion under the congestion cost of
// Eq. (1), whole-net rip-up-and-reroute in the style of Nair, and the
// buffer-aware two-path maze search of Stage 4 that minimizes the combined
// wire and buffer congestion costs (Eqs. (1) + (2)).
package route

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/rtree"
	"repro/internal/tile"
)

// Options controls the router.
type Options struct {
	// Alpha is the Prim–Dijkstra tradeoff applied to the accumulated path
	// cost when relaxing neighbors (1 = pure shortest paths). The paper
	// reuses its Stage-1 value, 0.4.
	Alpha float64
	// LengthWeight is added to every edge cost so that among equally
	// uncongested routes the shorter one wins.
	LengthWeight float64
	// OverflowPenalty replaces the +Inf of Eq. (1)/(2) so that a route (or
	// buffer) always exists even when every alternative is saturated; the
	// huge cost still makes the router exhaust all finite options first.
	OverflowPenalty float64
	// Weight, when non-nil, replaces the congestion cost of Eq. (1) as the
	// per-edge routing cost (LengthWeight is still added). The
	// multicommodity-flow router uses this to route under its own
	// exponential edge lengths.
	Weight func(e int) float64
	// Kernel selects the wavefront priority-queue implementation:
	// KernelHeap (binary heap, the default; "" means heap), KernelDial
	// (bucket queue, byte-identical results), or KernelAstar (goal-directed,
	// identical path costs, fewer pops). See kernel.go and DESIGN.md
	// "Search kernels". A non-nil Weight falls back to the heap — the
	// custom cost function publishes none of the bounds the other kernels
	// need.
	Kernel string
	// Obs receives router telemetry: per-net wavefront pop/push counters,
	// rip-up pass spans with the per-pass overflow trajectory, and
	// congestion-heat snapshots after every pass. nil (the default)
	// disables instrumentation at zero cost.
	Obs obs.Observer
	// Stage labels emitted telemetry with the pipeline stage (0 outside
	// the RABID pipeline).
	Stage int
	// Pass labels emitted telemetry with the rip-up pass number;
	// ReduceCongestion sets it on the per-pass Options copy.
	Pass int
}

// DefaultOptions returns the parameter set used by the experiments.
func DefaultOptions() Options {
	return Options{Alpha: 0.4, LengthWeight: 0.05, OverflowPenalty: 1e6}
}

// edgeCost returns the finite routing cost for edge e: the congestion cost
// of Eq. (1) (or weight(e) when non-nil), clamped at the overflow penalty
// pen, plus the length weight lw.
func edgeCost(g *tile.Graph, e int, weight func(int) float64, pen, lw float64) float64 {
	var c float64
	if weight != nil {
		c = weight(e)
	} else {
		c = g.WireCost(e)
	}
	if c > pen {
		c = pen
	}
	return c + lw
}

// edgeCostMemo is edgeCost with a per-call memo: within one kernel call the
// congestion state of g is static (a net's own wires are removed before it
// reroutes), so every evaluation of an edge yields the same value and the
// first one can be cached under the call's epoch. A non-nil weight is
// never memoized — a caller-supplied cost function may close over state
// the workspace cannot see — so a call under a weight stamps no entry
// with its epoch and the hit test needs no weight check. The cost
// parameters travel as scalars, not as an Options copy, and the hit path
// is small enough to inline.
func (ws *Workspace) edgeCostMemo(g *tile.Graph, e int, weight func(int) float64, pen, lw float64) float64 {
	if ws.ecStamp[e] == ws.epoch {
		return ws.ec[e]
	}
	return ws.edgeCostMiss(g, e, weight, pen, lw)
}

// edgeCostMiss is edgeCostMemo's miss path: evaluate, and memoize unless
// weight is set.
func (ws *Workspace) edgeCostMiss(g *tile.Graph, e int, weight func(int) float64, pen, lw float64) float64 {
	c := edgeCost(g, e, weight, pen, lw)
	if weight == nil {
		ws.ecStamp[e] = ws.epoch
		ws.ec[e] = c
	}
	return c
}

// checkWeights rejects router cost weights outside their domain. A
// negative, NaN or +Inf length weight or overflow penalty makes edge costs
// negative or non-finite, and a wavefront under negative costs re-pushes
// labels without bound until memory runs out; the Stage-4 bound's
// exactness argument also needs every cost to be non-negative.
func checkWeights(opt Options) error {
	if !(opt.LengthWeight >= 0) || math.IsInf(opt.LengthWeight, 1) {
		return fmt.Errorf("route: LengthWeight %g must be finite and >= 0", opt.LengthWeight) //rabid:allow allocfree cold abort path: fmt argument boxing only on invalid input
	}
	if !(opt.OverflowPenalty >= 0) || math.IsInf(opt.OverflowPenalty, 1) {
		return fmt.Errorf("route: OverflowPenalty %g must be finite and >= 0", opt.OverflowPenalty) //rabid:allow allocfree cold abort path: fmt argument boxing only on invalid input
	}
	return nil
}

// Reroute computes a fresh route tree for the net on the current congestion
// state of g. The net's own previous wires must already be removed from g
// (see RemoveUsage). The route is a union of wavefront paths from the
// source tile to every sink tile, traced back through the predecessor
// labels, exactly as described for Stage 2.
//
// ws supplies the reusable scratch arrays and recycled tree storage; nil is
// allowed (a private workspace is allocated). With a warmed workspace and a
// nil observer the call performs no allocations.
func Reroute(g *tile.Graph, n *netlist.Net, opt Options, ws *Workspace) (*rtree.Tree, error) {
	if err := checkWeights(opt); err != nil {
		return nil, err
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	src := n.Source.Tile
	if !g.InGrid(src) {
		return nil, fmt.Errorf("route: net %d source %v outside grid", n.ID, src) //rabid:allow allocfree cold abort path: fmt argument boxing only when the route fails
	}
	nt := g.NumTiles()
	ws.begin(g.NumEdges()) //rabid:allow allocfree inlined grow path: begin reallocates edge scratch only when the graph outgrows the workspace
	ws.growTiles(nt)       //rabid:allow allocfree inlined grow path: tile scratch reallocates only when the graph outgrows the workspace
	ep := ws.epoch
	// Mark the sink tiles still to be reached; remaining counts distinct
	// marked tiles (the wantStamp epoch check deduplicates co-located
	// sinks, as the map insert used to).
	remaining := 0
	for _, s := range n.Sinks {
		if !g.InGrid(s.Tile) {
			return nil, fmt.Errorf("route: net %d sink %v outside grid", n.ID, s.Tile) //rabid:allow allocfree cold abort path: fmt argument boxing only when the route fails
		}
		if ti := g.TileIndex(s.Tile); ws.wantStamp[ti] != ep {
			ws.wantStamp[ti] = ep
			remaining++
		}
	}
	srcIdx := g.TileIndex(src)
	if ws.wantStamp[srcIdx] == ep {
		ws.wantStamp[srcIdx] = 0
		remaining--
	}

	kern, err := resolveKernel(opt)
	if err != nil {
		return nil, err
	}
	if kern == kAstar && opt.Alpha != 1 { //rabid:allow floateq exact gate: A* keeps heap-identical labels only at exactly alpha=1 (see kernel.go)
		// The PD key is non-monotone for alpha < 1: a later pop can offer a
		// done node a smaller key (k_v - k_u = ec_uv - (1-alpha)*ec_parent),
		// so the labels are pop-order-defined and any goal-directed
		// reordering changes results (TestAstarCostIdenticalReroute pins
		// the alpha=1 guarantee; the divergence is real at 0.4). Fall back
		// to the heap order; BufferAwarePath — a pure Dijkstra — and
		// alpha=1 reroutes (the cost-distance Steiner mode) keep the
		// goal-directed speedup.
		kern = kHeap
	}
	ws.qReset(kern, g, opt)
	if kern == kAstar {
		ws.astarArmReroute(g, n, opt)
	}
	ws.stamp[srcIdx] = ep
	ws.key[srcIdx] = 0
	ws.pathCost[srcIdx] = 0
	ws.done[srcIdx] = false
	ws.qPush(pqItem{srcIdx, 0}) // sole item: its priority never competes
	weight, pen, lw := opt.Weight, opt.OverflowPenalty, opt.LengthWeight
	tally := opt.Obs != nil // counter bookkeeping only when someone listens
	pops, pushes, relaxations := 0, 0, 0
	if tally {
		pushes = 1
	}
	for ws.qLen() > 0 && remaining > 0 {
		it := ws.qPop()
		if tally {
			pops++
		}
		u := it.node
		if ws.done[u] {
			continue
		}
		ws.done[u] = true
		if ws.wantStamp[u] == ep {
			ws.wantStamp[u] = 0
			remaining--
		}
		nbrs, edges := g.Adjacency(u)
		pcu := ws.pathCost[u]
		base := opt.Alpha * pcu
		for x, v32 := range nbrs {
			v := int(v32)
			if ws.stamp[v] != ep {
				// First touch this call: an unstamped tile reads as
				// key = +Inf, not done.
				ws.stamp[v] = ep
				ws.key[v] = math.Inf(1)
				ws.done[v] = false
			} else if ws.done[v] {
				continue
			}
			if tally {
				relaxations++
			}
			ec := ws.edgeCostMemo(g, int(edges[x]), weight, pen, lw)
			if k := base + ec; k < ws.key[v] {
				ws.key[v] = k
				ws.pathCost[v] = pcu + ec
				//rabid:allow narrowcast tile indices are < NumTiles <= MaxInt32, enforced by tile.New
				ws.pred[v] = int32(u)
				pr := k
				if kern == kAstar {
					pr += ws.astarHR(v, ec)
				}
				ws.qPush(pqItem{v, pr})
				if tally {
					pushes++
				}
			}
		}
	}
	if tally {
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "route.pops", Stage: opt.Stage, Net: n.ID, Value: float64(pops)})
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "route.pushes", Stage: opt.Stage, Net: n.ID, Value: float64(pushes)})
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "route.relaxations", Stage: opt.Stage, Net: n.ID, Value: float64(relaxations)})
	}
	if remaining > 0 {
		return nil, fmt.Errorf("route: net %d: %d sinks unreachable", n.ID, remaining) //rabid:allow allocfree cold abort path: fmt argument boxing only when the route fails
	}
	// Trace each sink back to the source; the union of predecessor paths is
	// a tree because every node has one predecessor. parent[v] (valid while
	// pstamp[v] == ep) replaces the old geom.Pt parent map; a tile whose
	// chain was already traced stops the walk, like the map-presence check
	// used to.
	tb := ws.touched[:0]
	for _, s := range n.Sinks {
		for v := g.TileIndex(s.Tile); v != srcIdx; v = int(ws.pred[v]) {
			if ws.pstamp[v] == ep {
				break // already traced from here up
			}
			ws.pstamp[v] = ep
			ws.parent[v] = ws.pred[v]
			//rabid:allow narrowcast tile indices are < NumTiles <= MaxInt32, enforced by tile.New
			tb = append(tb, int32(v))
		}
	}
	// Insert in ascending tile-index order: indices are row-major (y*W+x),
	// so this is exactly the (Y, X) key order rtree.FromParentMap sorts
	// its map keys into — the node numbering, which downstream
	// tie-breaking follows, is unchanged.
	slices.Sort(tb)
	ws.touched = tb

	rt := ws.takeTree() //rabid:allow allocfree fresh tree only when the recycle pool is empty; the steady state reuses storage returned through Recycle
	rt.Tile = append(rt.Tile, src)
	rt.Parent = append(rt.Parent, -1)
	ws.nstamp[srcIdx] = ep
	ws.nodeIdx[srcIdx] = 0
	stack := ws.stack[:0]
	for _, v32 := range tb {
		// Parent-first insertion, iteratively: climb to the nearest already
		// inserted ancestor, then unwind. Mirrors FromParentMap's recursive
		// insert; its no-parent/non-adjacent errors cannot fire here because
		// every chain ends at the source over grid edges.
		v := int(v32)
		stack = stack[:0]
		for ws.nstamp[v] != ep {
			//rabid:allow narrowcast v round-trips through int32 tile indices (tile.New caps the grid at MaxInt32 tiles)
			stack = append(stack, int32(v))
			v = int(ws.parent[v])
		}
		pi := int(ws.nodeIdx[v])
		for x := len(stack) - 1; x >= 0; x-- {
			u := int(stack[x])
			ni := len(rt.Tile)
			rt.Tile = append(rt.Tile, g.TileAt(u))
			rt.Parent = append(rt.Parent, pi)
			ws.nstamp[u] = ep
			//rabid:allow narrowcast node count <= NumTiles <= MaxInt32, enforced by tile.New
			ws.nodeIdx[u] = int32(ni)
			pi = ni
		}
	}
	ws.stack = stack
	for _, s := range n.Sinks {
		rt.SinkNode = append(rt.SinkNode, int(ws.nodeIdx[g.TileIndex(s.Tile)]))
	}
	// Pruning is provably a no-op on wavefront traceback output — every
	// inserted tile lies on some sink-to-source path, so every childless
	// node carries a sink. Verify the invariant cheaply instead of paying
	// Prune's rebuild per net; the fallback keeps the contract honest if
	// the invariant is ever broken.
	var needs bool
	if needs, ws.nodeCnt = rt.HasPrunableLeaf(ws.nodeCnt); needs { //rabid:allow allocfree inlined grow path: the child-count scratch reallocates only until it fits the largest tree
		pruned := rt.Prune()
		ws.Recycle(rt)
		rt = pruned
	}
	return rt, nil
}

// AddUsage registers one wire per route-tree edge on the graph. Edges are
// visited in node order (as EdgePairs enumerates them) without
// materializing the pair list.
func AddUsage(g *tile.Graph, rt *rtree.Tree) {
	for v := 1; v < len(rt.Tile); v++ {
		a, b := rt.Tile[rt.Parent[v]], rt.Tile[v]
		e, ok := g.EdgeBetween(a, b)
		if !ok {
			panic(fmt.Sprintf("route: tree edge %v-%v not a grid edge", a, b)) //rabid:allow allocfree panic path: boxing only when a corrupted tree violates the grid invariant
		}
		g.AddWire(e)
	}
}

// RemoveUsage removes the route tree's wires from the graph.
func RemoveUsage(g *tile.Graph, rt *rtree.Tree) {
	for v := 1; v < len(rt.Tile); v++ {
		a, b := rt.Tile[rt.Parent[v]], rt.Tile[v]
		e, ok := g.EdgeBetween(a, b)
		if !ok {
			panic(fmt.Sprintf("route: tree edge %v-%v not a grid edge", a, b)) //rabid:allow allocfree panic path: boxing only when a corrupted tree violates the grid invariant
		}
		g.RemoveWire(e) //rabid:allow allocfree inlined panic path: RemoveWire formats its message only when rip-up bookkeeping is corrupted
	}
}

// RipupPass performs one full Nair-style pass: every net, in the given
// order, is deleted entirely and rerouted under the current congestion.
// routes is updated in place (indexed like nets). With an observer
// attached it counts reroutes attempted versus improved/degraded (by
// routed wirelength), the convergence signal of the Nair iteration.
//
// It returns the number of order entries fully committed (old tree
// replaced, wire usage re-registered). On success that is len(order); when
// a Reroute fails mid-pass the earlier nets of the pass have already been
// replaced and their old trees recycled, and the returned count tells the
// caller exactly which prefix of order committed — routes[order[:committed]]
// hold the new trees, the remaining entries still hold their pre-pass
// trees, and the graph's wire usage is consistent with the routes slice in
// either region (the failing net's own wires are restored before the error
// returns). TestRipupPassPartialFailure pins this contract.
//
// Each ripped-up tree is donated to the workspace once its replacement is
// registered (the pass holds the only reference by contract — callers hand
// over routes they own), so a warmed workspace reroutes every net without
// allocating.
func RipupPass(g *tile.Graph, nets []*netlist.Net, routes []*rtree.Tree, order []int, opt Options, ws *Workspace) (committed int, err error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	reroutes, improved, degraded := 0, 0, 0
	for _, i := range order {
		old := routes[i]
		oldEdges := old.NumEdges()
		RemoveUsage(g, old)
		rt, err := Reroute(g, nets[i], opt, ws)
		if err != nil {
			AddUsage(g, old)                                                                               // restore before failing
			return committed, fmt.Errorf("route: rip-up pass failed at net %d after %d of %d commits: %w", //rabid:allow allocfree cold abort path: fmt argument boxing only when the pass fails
				nets[i].ID, committed, len(order), err)
		}
		routes[i] = rt
		AddUsage(g, rt)
		ws.Recycle(old)
		committed++
		reroutes++
		if n := rt.NumEdges(); n < oldEdges {
			improved++
		} else if n > oldEdges {
			degraded++
		}
	}
	if opt.Obs != nil {
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "ripup.reroutes", Stage: opt.Stage, Pass: opt.Pass, Net: -1, Value: float64(reroutes)})
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "ripup.improved", Stage: opt.Stage, Pass: opt.Pass, Net: -1, Value: float64(improved)})
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "ripup.degraded", Stage: opt.Stage, Pass: opt.Pass, Net: -1, Value: float64(degraded)})
	}
	return committed, nil
}

// ReduceCongestion is Stage 2: up to maxPasses full rip-up-and-reroute
// passes, stopping early once no edge exceeds capacity. It returns the
// number of passes executed — 0 when the circuit is already overflow-free
// at entry (a zero-overflow circuit has nothing for Nair iteration to
// reduce, so no pass runs and the Stage-1 routes are kept verbatim). Each
// pass is a trace span carrying the post-pass overflow trajectory and a
// congestion-heat snapshot.
//
// Every pass is the sequential RipupPass: each net reroutes under the
// congestion the nets before it left, which is the Nair loop itself.
func ReduceCongestion(g *tile.Graph, nets []*netlist.Net, routes []*rtree.Tree, order []int, maxPasses int, opt Options, ws *Workspace) (int, error) {
	return ReduceCongestionCtx(context.Background(), g, nets, routes, order, maxPasses, opt, ws) //rabid:allow ctxflow ReduceCongestion is the documented Background wrapper over ReduceCongestionCtx for context-free callers; core.RunContext calls the Ctx variant
}

// ReduceCongestionCtx is ReduceCongestion with a cancellation checkpoint at
// every rip-up pass boundary: once ctx is done no further pass starts and
// ctx.Err() is returned with the passes completed so far. A pass itself
// always runs to completion, so the graph's usage accounting is only ever
// observed at a pass boundary.
func ReduceCongestionCtx(ctx context.Context, g *tile.Graph, nets []*netlist.Net, routes []*rtree.Tree, order []int, maxPasses int, opt Options, ws *Workspace) (int, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	// With an observer attached, interpose a counting tap: it forwards
	// every event unchanged (streams stay byte-identical) while summing the
	// per-net route.pops / route.relaxations counters, so the per-kernel
	// totals below reflect exactly the emitted event stream.
	var tap *kernelTap
	if opt.Obs != nil {
		tap = &kernelTap{inner: opt.Obs}
		opt.Obs = tap
	}
	passes := 0
	for passes < maxPasses {
		if err := ctx.Err(); err != nil {
			return passes, err
		}
		if g.WireCongestion().Overflow == 0 {
			break
		}
		popt := opt
		popt.Pass = passes + 1
		t0 := obs.Now(opt.Obs)
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindSpanBegin, Scope: "ripup.pass", Stage: opt.Stage, Pass: popt.Pass, Net: -1})
		_, err := RipupPass(g, nets, routes, order, popt, ws)
		if opt.Obs != nil {
			wst := g.WireCongestion()
			// The heat snapshot reuses the workspace buffer across passes;
			// observers must not retain Event.Vals (see obs.Event).
			ws.heat = wireHeat(g, ws.heat)
			obs.Emit(opt.Obs, obs.Event{Kind: obs.KindGauge, Scope: "ripup.overflow", Stage: opt.Stage, Pass: popt.Pass, Net: -1, Value: float64(wst.Overflow)})
			obs.Emit(opt.Obs, obs.Event{Kind: obs.KindGauge, Scope: "ripup.wire_max", Stage: opt.Stage, Pass: popt.Pass, Net: -1, Value: wst.Max})
			obs.Emit(opt.Obs, obs.Event{Kind: obs.KindHeat, Scope: "heat.wire", Stage: opt.Stage, Pass: popt.Pass, Net: -1, Vals: ws.heat})
			obs.Emit(opt.Obs, obs.Event{Kind: obs.KindSpanEnd, Scope: "ripup.pass", Stage: opt.Stage, Pass: popt.Pass, Net: -1, Dur: obs.Since(opt.Obs, t0)})
		}
		if err != nil {
			return passes, err
		}
		passes++
		if g.WireCongestion().Overflow == 0 {
			break
		}
	}
	// Kernel-labeled wavefront totals, emitted once per Stage-2 call (not
	// per pass) and zero-valued when no pass ran, so cmd/metricscheck can
	// require e.g. route.pops.heap.<stage> whenever an observer is
	// attached.
	if tap != nil {
		label := kernelLabel(opt)
		obs.Emit(tap.inner, obs.Event{Kind: obs.KindCounter, Scope: "route.pops." + label, Stage: opt.Stage, Net: -1, Value: tap.pops})
		obs.Emit(tap.inner, obs.Event{Kind: obs.KindCounter, Scope: "route.relaxations." + label, Stage: opt.Stage, Net: -1, Value: tap.relaxations})
	}
	return passes, nil
}

// kernelTap is a pass-through observer that totals the per-net wavefront
// counters flowing by; ReduceCongestionCtx uses it to emit per-kernel
// aggregates without a second bookkeeping path in the hot loops.
type kernelTap struct {
	inner             obs.Observer
	pops, relaxations float64
}

func (t *kernelTap) Observe(e obs.Event) {
	if e.Kind == obs.KindCounter {
		switch e.Scope {
		case "route.pops":
			t.pops += e.Value
		case "route.relaxations":
			t.relaxations += e.Value
		}
	}
	t.inner.Observe(e)
}

// wireHeat is the per-tile congestion field emitted with heat snapshots:
// each tile's maximum incident w(e)/W(e). The result is written into heat
// (grown as needed) and returned, so a caller-held buffer is reused across
// pass snapshots instead of allocating NumTiles floats per pass.
// Utilization goes through tile.Graph.EdgeUtil, whose zero-capacity guard
// (the analogue of SiteCost's zero-sites check) keeps every snapshot value
// finite — a raw w/W division would plant +Inf or NaN on a blocked edge
// and poison heat.wire observer events and downstream aggregation.
func wireHeat(g *tile.Graph, heat []float64) []float64 {
	nt := g.NumTiles()
	if cap(heat) < nt {
		heat = make([]float64, nt)
	}
	heat = heat[:nt]
	for v := range heat {
		h := 0.0
		_, edges := g.Adjacency(v)
		for _, e32 := range edges {
			if c := g.EdgeUtil(int(e32)); c > h {
				h = c
			}
		}
		heat[v] = h
	}
	return heat
}

// siteCostClamped is the Eq. (2) site cost with the router's overflow
// clamp pen applied.
func siteCostClamped(g *tile.Graph, v int, pen float64) float64 {
	c := g.SiteCost(v)
	if c > pen {
		c = pen
	}
	return c
}

// BufferAwarePath finds the cheapest tail-to-head reconnection for a ripped
// two-path under the combined wire + buffer congestion cost. The search
// state is (tile, j) where j is the tile distance since the last buffer
// (bounded by L-1, as in the Stage-3 cost arrays); moving to a tile either
// advances j or places a buffer there (adding the Eq. (2) site cost) and
// resets j. blocked tiles (the rest of the net's tree, as a per-tile-index
// mask; nil blocks nothing) are not entered. The returned path runs from
// head to tail inclusive.
//
// Dominated labels are dropped: a label (w, j) whose tile already holds a
// label (w, j') with j' < j at a distance no greater is never pushed, and
// never expanded if it was pushed before the dominating label appeared.
// Transition costs do not depend on j, so every continuation of (w, j) is
// available to (w, j') at no greater cost; the pruning changes no result
// (see DESIGN.md, "Search kernels").
//
// incumbent, when non-nil, is a known tail-to-head tile path the search
// could take — the ripped two-path itself in Stage 4. Its cheapest
// buffering is an upper bound U on the optimum, and a move into tile w is
// dropped when the cost so far plus w's edge-only distance to the head
// (from a reverse tile search run on demand, see armStart) exceeds U. The
// pop order is untouched and the bound changes no result, only the work
// (DESIGN.md, "Search kernels"); useBound says when it pays. An incumbent
// that is not a tail-to-head path of adjacent, enterable tiles is an
// error. nil runs the unbounded search; a non-nil Options.Weight ignores
// the incumbent, since custom costs carry no sign guarantee.
//
// ws supplies the reusable (tile, j) state arrays; nil is allowed. The
// returned path aliases the workspace's traceback buffer and is valid only
// until the workspace's next use — callers that keep paths must copy.
func BufferAwarePath(g *tile.Graph, tail, head geom.Pt, L int, blocked []bool, incumbent []geom.Pt, opt Options, ws *Workspace) ([]geom.Pt, error) {
	if err := checkWeights(opt); err != nil {
		return nil, err
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	if L < 1 {
		return nil, fmt.Errorf("route: length constraint %d < 1", L) //rabid:allow allocfree cold abort path: fmt argument boxing only on invalid input
	}
	if !g.InGrid(tail) || !g.InGrid(head) {
		return nil, fmt.Errorf("route: endpoints %v,%v outside grid", tail, head) //rabid:allow allocfree cold abort path: fmt argument boxing only on invalid input
	}
	nt := g.NumTiles()
	// The (tile, j) state space is indexed by int32 predecessor labels; a
	// large grid times a large L would silently wrap the labels and corrupt
	// the traceback, so the size is guarded up front (before allocation).
	if int64(nt)*int64(L) > math.MaxInt32 {
		return nil, fmt.Errorf("route: DP state space %d tiles x L=%d = %d exceeds %d states", //rabid:allow allocfree cold abort path: fmt argument boxing only when the guard rejects the instance
			nt, L, int64(nt)*int64(L), int64(math.MaxInt32))
	}
	ws.begin(g.NumEdges()) //rabid:allow allocfree inlined grow path: begin reallocates edge scratch only when the graph outgrows the workspace
	ws.growStates(nt * L)  //rabid:allow allocfree inlined grow path: DP state scratch reallocates only when tiles*L outgrows the workspace
	ep := ws.epoch
	headIdx := g.TileIndex(head)
	kern, err := resolveKernel(opt)
	if err != nil {
		return nil, err
	}
	weight, pen, lw := opt.Weight, opt.OverflowPenalty, opt.LengthWeight
	// ub is the padded incumbent bound, +Inf when unbounded (see
	// useBound). The reverse tile search runs whenever something reads
	// it: the bound, or the astar kernel's heuristic.
	ub := math.Inf(1)
	if incumbent != nil && weight == nil {
		u, err := ws.incumbentBound(g, incumbent, tail, headIdx, L, blocked, pen, lw)
		if err != nil {
			return nil, err
		}
		if useBound(u, L, pen, kern) {
			ub = u
		}
	}
	bounded := ub < math.Inf(1)
	ws.qReset(kern, g, opt)
	if bounded || kern == kAstar {
		ws.armStart(g, headIdx, g.TileIndex(tail), pen, lw, kern != kAstar)
	} else {
		ws.bnd.armPops, ws.bnd.armRelax = 0, 0
	}
	start := g.TileIndex(tail) * L // state (tail, 0)
	ws.sStamp[start] = ep
	ws.sDist[start] = 0
	ws.sPred[start] = -1
	ws.sDone[start] = false
	ws.qPush(pqItem{start, 0}) // sole item: its priority never competes
	goal := -1
	tally := opt.Obs != nil
	pops, pushes, relaxations := 0, 0, 0
	if tally {
		pushes = 1
	}
	for ws.qLen() > 0 {
		it := ws.qPop()
		if tally {
			pops++
		}
		s := it.node
		if ws.sDone[s] {
			continue
		}
		ws.sDone[s] = true
		v, j := s/L, s%L
		if v == headIdx {
			goal = s
			break
		}
		ds := ws.sDist[s]
		if ws.bapDominated(v*L, j, ds) {
			continue // a lower-j label at v settled at no greater distance
		}
		nbrs, edges := g.Adjacency(v)
		for x, w32 := range nbrs {
			w := int(w32)
			if blocked != nil && blocked[w] && w != headIdx {
				continue
			}
			if tally {
				relaxations++
			}
			wc := ws.edgeCostMemo(g, int(edges[x]), weight, pen, lw)
			// hd(w) lower-bounds the rest of both moves into w, so one
			// test drops both when the bound rules w out, and a tile that
			// cannot reach the head is dropped the same way. hw is the
			// astar key's heuristic.
			var hw float64
			if bounded || kern == kAstar {
				if !ws.armReach(g, blocked, headIdx, w, ub-(ds+wc)) {
					continue
				}
				if kern == kAstar {
					hw = ws.bnd.hd[w]
				}
				if ds+wc+ws.bnd.hd[w]*boundScale > ub {
					continue
				}
			}
			// Advance without buffering.
			if j+1 < L {
				ns := w*L + j + 1
				if ws.sStamp[ns] != ep {
					ws.sStamp[ns] = ep
					ws.sDist[ns] = math.Inf(1)
					ws.sDone[ns] = false
				}
				if nd := ds + wc; nd < ws.sDist[ns] && !ws.bapDominated(w*L, j+1, nd) {
					ws.sDist[ns] = nd
					//rabid:allow narrowcast s < nt*L, guarded against MaxInt32 at function entry
					ws.sPred[ns] = int32(s)
					ws.qPush(pqItem{ns, nd + hw})
					if tally {
						pushes++
					}
				}
			}
			// Buffer at the new tile.
			ns := w * L
			if ws.sStamp[ns] != ep {
				ws.sStamp[ns] = ep
				ws.sDist[ns] = math.Inf(1)
				ws.sDone[ns] = false
			}
			// Site costs are non-negative, so an offer whose wire part
			// alone cannot beat the label skips the Eq. (2) evaluation.
			if ds+wc >= ws.sDist[ns] {
				continue
			}
			if nd := ds + wc + siteCostClamped(g, w, pen); nd < ws.sDist[ns] {
				ws.sDist[ns] = nd
				//rabid:allow narrowcast s < nt*L, guarded against MaxInt32 at function entry
				ws.sPred[ns] = int32(s)
				ws.qPush(pqItem{ns, nd + hw})
				if tally {
					pushes++
				}
			}
		}
	}
	if tally {
		// The reverse search is real queue work; charging it here keeps
		// the per-kernel pops/relaxations comparison honest.
		pops += ws.bnd.armPops
		relaxations += ws.bnd.armRelax
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "route.bap.pops", Stage: opt.Stage, Net: -1, Value: float64(pops)})
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "route.bap.pushes", Stage: opt.Stage, Net: -1, Value: float64(pushes)})
		obs.Emit(opt.Obs, obs.Event{Kind: obs.KindCounter, Scope: "route.bap.relaxations", Stage: opt.Stage, Net: -1, Value: float64(relaxations)})
	}
	if goal < 0 {
		return nil, fmt.Errorf("route: no reconnection from %v to %v", tail, head) //rabid:allow allocfree cold abort path: fmt argument boxing only when no path exists
	}
	rev := ws.path[:0]
	for s := goal; s != -1; s = int(ws.sPred[s]) {
		pv := g.TileAt(s / L)
		if len(rev) == 0 || rev[len(rev)-1] != pv {
			rev = append(rev, pv)
		}
	}
	ws.path = rev
	// rev is head..tail already (we traced from the head state back).
	return rev, nil
}

// Float margins of the incumbent bound. The search sums a path's costs
// tail first, the reverse arming sums them head first and the DP once
// more in the search's own order, so the same path's cost can differ in
// the last bits between them. boundScale shrinks the lower bounds by a
// relative 1e-12 and boundPad widens U by 1e-9·(1+U); both dwarf the
// rounding error of any path that fits in an int32 state space, so no
// label on a path costing at most the optimum is ever dropped.
const (
	boundScale = 1 - 1e-12
	boundPad   = 1e-9
)

// minBoundL is the smallest length constraint at which the heap and dial
// kernels prune by the incumbent bound. The reverse search costs about one
// pop per tile it closes while the bound saves pops per (tile, j) state,
// and below this L a tile has too few states to pay: on the coarse suite
// grids (L = 2 on every net) the bound cut forward pops by a third but
// the reverse search added more than that back, for no wall-clock gain,
// while at the paper grids (L = 5 and 6) it cuts all pops by a quarter
// (EXPERIMENTS.md, "Stage-4 incumbent bound").
const minBoundL = 3

// useBound reports whether a call prunes by the padded incumbent bound u.
// An incumbent that pays the overflow penalty — it crosses a full edge,
// or a stretch with no free buffer site — bounds nothing a penalty-free
// reconnection could cost, and arming up to such a bound would close
// nearly every tile of the grid. The astar kernel runs the reverse search
// anyway, so there the bound is pure gain at every L.
func useBound(u float64, L int, pen float64, kern kernelID) bool {
	if u >= pen {
		return false
	}
	return L >= minBoundL || kern == kAstar
}

// incumbentBound returns the padded upper bound U on BufferAwarePath's
// optimum from a known path inc (tail first, head last): the cheapest
// buffering of that fixed tile sequence, by a DP over j along the path
// with the search's own transitions and cost expressions in the same
// association order, so U is the exact cost the search itself would
// assign that path's best labeling. O(len(inc)·L), on workspace scratch.
func (ws *Workspace) incumbentBound(g *tile.Graph, inc []geom.Pt, tail geom.Pt, headIdx, L int, blocked []bool, pen, lw float64) (float64, error) {
	if len(inc) == 0 || inc[0] != tail || !g.InGrid(inc[len(inc)-1]) || g.TileIndex(inc[len(inc)-1]) != headIdx {
		return 0, fmt.Errorf("route: incumbent does not run from tail %v to head %v", tail, g.TileAt(headIdx)) //rabid:allow allocfree cold abort path: fmt argument boxing only on invalid input
	}
	b := &ws.bnd
	if cap(b.dp) < 2*L {
		b.dp = make([]float64, 2*L) //rabid:allow allocfree cold grow path: the DP rows reallocate only until the workspace has seen the largest L
	}
	cur, nxt := b.dp[:L], b.dp[L:2*L]
	cur[0] = 0
	for j := 1; j < L; j++ {
		cur[j] = math.Inf(1)
	}
	for k := 1; k < len(inc); k++ {
		e, ok := g.EdgeBetween(inc[k-1], inc[k])
		if !ok {
			return 0, fmt.Errorf("route: incumbent step %v-%v is not a grid edge", inc[k-1], inc[k]) //rabid:allow allocfree cold abort path: fmt argument boxing only on invalid input
		}
		w := g.TileIndex(inc[k])
		if blocked != nil && blocked[w] && w != headIdx {
			return 0, fmt.Errorf("route: incumbent enters blocked tile %v", inc[k]) //rabid:allow allocfree cold abort path: fmt argument boxing only on invalid input
		}
		wc := ws.edgeCostMemo(g, e, nil, pen, lw)
		sc := siteCostClamped(g, w, pen)
		best := math.Inf(1)
		for j, d := range cur {
			if j+1 < L {
				nxt[j+1] = d + wc
			}
			if c := d + wc + sc; c < best {
				best = c
			}
		}
		nxt[0] = best
		cur, nxt = nxt, cur
	}
	u := cur[0]
	for _, d := range cur[1:] {
		u = math.Min(u, d)
	}
	return u + boundPad*(1+u), nil
}

// bapDominated reports whether a label at distance d for state row+j is
// dominated: some state row+j' with j' < j already holds a (tentative or
// final) distance no greater than d. row is the tile's first state index
// (tile*L); unstamped states hold no label.
func (ws *Workspace) bapDominated(row, j int, d float64) bool {
	for s := row; s < row+j; s++ {
		if ws.sStamp[s] == ws.epoch && ws.sDist[s] <= d {
			return true
		}
	}
	return false
}
