package route

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/tile"
)

// bapReference is BufferAwarePath without dominance pruning: the plain
// (tile, j) Dijkstra over every label, kept here as the oracle the pruned
// search must reproduce. It runs on the same kernels and workspace
// machinery and returns the path (copied), the goal state's distance and
// the pop count the pruned search reports under an observer.
func bapReference(g *tile.Graph, tail, head geom.Pt, L int, blocked []bool, opt Options, ws *Workspace) ([]geom.Pt, float64, int, error) {
	nt := g.NumTiles()
	ws.begin(g.NumEdges())
	ws.growStates(nt * L)
	ep := ws.epoch
	headIdx := g.TileIndex(head)
	kern, err := resolveKernel(opt)
	if err != nil {
		return nil, 0, 0, err
	}
	ws.qReset(kern, g, opt)
	pops := 0
	if kern == kAstar {
		ws.armStart(g, headIdx, g.TileIndex(tail), opt.OverflowPenalty, opt.LengthWeight, false)
	}
	start := g.TileIndex(tail) * L
	ws.sStamp[start] = ep
	ws.sDist[start] = 0
	ws.sPred[start] = -1
	ws.sDone[start] = false
	ws.qPush(pqItem{start, 0})
	goal := -1
	for ws.qLen() > 0 {
		it := ws.qPop()
		pops++
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
		nbrs, edges := g.Adjacency(v)
		for x, w32 := range nbrs {
			w := int(w32)
			if blocked != nil && blocked[w] && w != headIdx {
				continue
			}
			wc := ws.edgeCostMemo(g, int(edges[x]), opt.Weight, opt.OverflowPenalty, opt.LengthWeight)
			var hw float64
			if kern == kAstar {
				hw = math.Inf(1)
				if ws.armReach(g, blocked, headIdx, w, math.Inf(1)) {
					hw = ws.bnd.hd[w]
				}
			}
			if j+1 < L {
				ns := w*L + j + 1
				if ws.sStamp[ns] != ep {
					ws.sStamp[ns] = ep
					ws.sDist[ns] = math.Inf(1)
					ws.sDone[ns] = false
				}
				if nd := ds + wc; nd < ws.sDist[ns] {
					ws.sDist[ns] = nd
					ws.sPred[ns] = int32(s)
					ws.qPush(pqItem{ns, nd + hw})
				}
			}
			ns := w * L
			if ws.sStamp[ns] != ep {
				ws.sStamp[ns] = ep
				ws.sDist[ns] = math.Inf(1)
				ws.sDone[ns] = false
			}
			if nd := ds + wc + siteCostClamped(g, w, opt.OverflowPenalty); nd < ws.sDist[ns] {
				ws.sDist[ns] = nd
				ws.sPred[ns] = int32(s)
				ws.qPush(pqItem{ns, nd + hw})
			}
		}
	}
	pops += ws.bnd.armPops
	if goal < 0 {
		return nil, 0, pops, fmt.Errorf("no reconnection from %v to %v", tail, head)
	}
	var rev []geom.Pt
	for s := goal; s != -1; s = int(ws.sPred[s]) {
		pv := g.TileAt(s / L)
		if len(rev) == 0 || rev[len(rev)-1] != pv {
			rev = append(rev, pv)
		}
	}
	return rev, ws.sDist[goal], pops, nil
}

// bapLabel is one (state, distance) entry of a goal's predecessor chain.
type bapLabel struct {
	s int
	d float64
}

// bapChain reads the goal state's predecessor chain off a workspace after
// a search: the single settled head state, then every predecessor with
// its distance.
func bapChain(ws *Workspace, headIdx, L int) []bapLabel {
	goal := -1
	for s := headIdx * L; s < headIdx*L+L; s++ {
		if ws.sStamp[s] == ws.epoch && ws.sDone[s] {
			goal = s
		}
	}
	var chain []bapLabel
	for s := goal; s != -1; s = int(ws.sPred[s]) {
		chain = append(chain, bapLabel{s, ws.sDist[s]})
	}
	return chain
}

// randomBAPGraph builds a small grid with random capacities, wire usage,
// buffer-site counts, committed buffers and demand. uniform gives every
// edge and tile the same state, so equal-cost ties are everywhere.
func randomBAPGraph(t *testing.T, r *rand.Rand, uniform bool) *tile.Graph {
	t.Helper()
	w, h := 2+r.Intn(10), 2+r.Intn(10)
	sites := make([]int, w*h)
	for i := range sites {
		if uniform {
			sites[i] = 2
		} else {
			sites[i] = r.Intn(4)
		}
	}
	g, err := tile.New(w, h, sites, 1+r.Intn(3))
	if err != nil {
		t.Fatal(err)
	}
	if uniform {
		return g
	}
	for e := 0; e < g.NumEdges(); e++ {
		if r.Intn(4) == 0 {
			g.SetCapacity(e, r.Intn(3))
		}
		for k := r.Intn(4); k > 0; k-- {
			g.AddWire(e)
		}
	}
	for v := 0; v < g.NumTiles(); v++ {
		for k := r.Intn(3); k > 0 && g.UsedSites(v) < g.Sites(v); k-- {
			g.AddBuffer(v)
		}
		if r.Intn(3) == 0 {
			g.AddDemand(v, r.Float64())
		}
	}
	return g
}

// TestBufferAwarePathMatchesUnprunedOracle checks the dominance pruning
// against the unpruned search on random small grids, for every L in 1..7
// and every kernel, on congested grids and on uniform-cost grids where
// ties are common: the same path, the same goal cost, the same goal
// chain (states, predecessors and distances), and never more pops.
func TestBufferAwarePathMatchesUnprunedOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2001))
	fewer := 0
	for trial := 0; trial < 160; trial++ {
		uniform := trial%3 == 0
		g := randomBAPGraph(t, r, uniform)
		nt := g.NumTiles()
		tail := g.TileAt(r.Intn(nt))
		head := g.TileAt(r.Intn(nt))
		if tail == head {
			continue
		}
		var blocked []bool
		if r.Intn(4) != 0 {
			blocked = make([]bool, nt)
			for v := range blocked {
				blocked[v] = r.Intn(5) == 0
			}
			blocked[g.TileIndex(tail)] = false
		}
		for L := 1; L <= 7; L++ {
			for _, kernel := range Kernels() {
				opt := DefaultOptions()
				opt.Kernel = kernel
				wsRef := NewWorkspace()
				wantPath, wantCost, wantPops, wantErr := bapReference(g, tail, head, L, blocked, opt, wsRef)
				wantChain := bapChain(wsRef, g.TileIndex(head), L)

				m := obs.NewMetrics()
				popt := opt
				popt.Obs = m
				ws := NewWorkspace()
				path, err := BufferAwarePath(g, tail, head, L, blocked, nil, popt, ws)
				where := fmt.Sprintf("trial %d (uniform=%v) L=%d %s %v->%v", trial, uniform, L, kernel, tail, head)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("%s: pruned err=%v, reference err=%v", where, err, wantErr)
				}
				pops := int(m.Counter("route.bap.pops"))
				if pops > wantPops {
					t.Fatalf("%s: pruned pops %d > reference pops %d", where, pops, wantPops)
				}
				if pops < wantPops {
					fewer++
				}
				if err != nil {
					continue
				}
				if !slices.Equal(path, wantPath) {
					t.Fatalf("%s: path %v, reference %v", where, path, wantPath)
				}
				chain := bapChain(ws, g.TileIndex(head), L)
				if chain[0].d != wantCost {
					t.Fatalf("%s: goal cost %v, reference %v", where, chain[0].d, wantCost)
				}
				if !slices.Equal(chain, wantChain) {
					t.Fatalf("%s: goal chain %v, reference %v", where, chain, wantChain)
				}
			}
		}
	}
	t.Logf("pruned searches popping fewer states than the reference: %d", fewer)
	if fewer == 0 {
		t.Fatal("pruning never fired: no search popped fewer states than the reference")
	}
}

// randomTilePath returns a tile path (first stop first) the search could
// take through the given stops: each leg is the cheapest path under random
// positive edge weights, entering only unblocked tiles (the last stop
// excepted), and a leg between adjacent stops is the direct step. ok is
// false when some leg does not exist.
func randomTilePath(g *tile.Graph, r *rand.Rand, blocked []bool, stops ...int) (path []geom.Pt, ok bool) {
	last := stops[len(stops)-1]
	leg := func(from, to int) []geom.Pt {
		if _, adj := g.EdgeBetween(g.TileAt(from), g.TileAt(to)); adj {
			return []geom.Pt{g.TileAt(to)}
		}
		dist := make([]float64, g.NumTiles())
		prev := make([]int, g.NumTiles())
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		dist[from] = 0
		q := distHeap{{from, 0}}
		for q.Len() > 0 {
			it := q.popMin()
			if it.key > dist[it.node] {
				continue
			}
			nbrs, _ := g.Adjacency(it.node)
			for _, w32 := range nbrs {
				w := int(w32)
				if blocked != nil && blocked[w] && w != last {
					continue
				}
				if d := it.key + 1 + r.Float64(); d < dist[w] {
					dist[w], prev[w] = d, it.node
					q.pushItem(pqItem{w, d})
				}
			}
		}
		if math.IsInf(dist[to], 1) {
			return nil
		}
		var rev []geom.Pt
		for v := to; v != from; v = prev[v] {
			rev = append(rev, g.TileAt(v))
		}
		slices.Reverse(rev)
		return rev
	}
	path = []geom.Pt{g.TileAt(stops[0])}
	for k := 1; k < len(stops); k++ {
		if stops[k] == stops[k-1] {
			continue
		}
		l := leg(stops[k-1], stops[k])
		if l == nil {
			return nil, false
		}
		path = append(path, l...)
	}
	return path, true
}

// TestBufferAwarePathBoundMatchesUnbounded checks the incumbent bound
// against the unpruned oracle on the inputs of
// TestBufferAwarePathMatchesUnprunedOracle (random and uniform-cost grids,
// blocked masks, L = 1..7, every kernel), under three incumbents: the
// optimum itself (U tight), a random valid path (U loose), and a path
// forced over an edge priced at the overflow penalty (U >= penalty, where
// the bound stands down). L = 1..7 spans both sides of minBoundL. Each
// bounded search must return the oracle's path, goal cost and goal chain,
// and pop no more forward states than the same search without the
// incumbent.
func TestBufferAwarePathBoundMatchesUnbounded(t *testing.T) {
	r := rand.New(rand.NewSource(2002))
	fewer, penalty := 0, 0
	for trial := 0; trial < 160; trial++ {
		uniform := trial%3 == 0
		g := randomBAPGraph(t, r, uniform)
		nt := g.NumTiles()
		tail := g.TileAt(r.Intn(nt))
		head := g.TileAt(r.Intn(nt))
		if tail == head {
			continue
		}
		var blocked []bool
		if r.Intn(4) != 0 {
			blocked = make([]bool, nt)
			for v := range blocked {
				blocked[v] = r.Intn(5) == 0
			}
			blocked[g.TileIndex(tail)] = false
		}
		// An enterable edge (a, b) priced at the overflow penalty, for the
		// third incumbent.
		ti, hi := g.TileIndex(tail), g.TileIndex(head)
		pa, pb := -1, -1
		for v := 0; v < nt && pa < 0; v++ {
			nbrs, edges := g.Adjacency(v)
			for x, w32 := range nbrs {
				w := int(w32)
				enter := func(t int) bool { return blocked == nil || !blocked[t] || t == hi }
				if enter(v) && enter(w) && v != hi && edgeCost(g, int(edges[x]), nil, DefaultOptions().OverflowPenalty, 0) >= DefaultOptions().OverflowPenalty {
					pa, pb = v, w
					break
				}
			}
		}
		for L := 1; L <= 7; L++ {
			for _, kernel := range Kernels() {
				opt := DefaultOptions()
				opt.Kernel = kernel
				headIdx := g.TileIndex(head)
				wsRef := NewWorkspace()
				wantPath, wantCost, _, wantErr := bapReference(g, tail, head, L, blocked, opt, wsRef)
				if wantErr != nil {
					continue // no reconnection: nothing to bound
				}
				wantChain := bapChain(wsRef, headIdx, L)
				forward := func(inc []geom.Pt) ([]geom.Pt, []bapLabel, int) {
					m := obs.NewMetrics()
					popt := opt
					popt.Obs = m
					ws := NewWorkspace()
					path, err := BufferAwarePath(g, tail, head, L, blocked, inc, popt, ws)
					if err != nil {
						t.Fatalf("trial %d L=%d %s: %v", trial, L, kernel, err)
					}
					return slices.Clone(path), bapChain(ws, headIdx, L), int(m.Counter("route.bap.pops")) - ws.bnd.armPops
				}
				_, _, unbPops := forward(nil)
				tight := slices.Clone(wantPath)
				slices.Reverse(tight)
				incs := [][]geom.Pt{tight}
				if p, ok := randomTilePath(g, r, blocked, ti, hi); ok {
					incs = append(incs, p)
				}
				if pa >= 0 {
					if p, ok := randomTilePath(g, r, blocked, ti, pa, pb, hi); ok {
						ws := NewWorkspace()
						ws.begin(g.NumEdges())
						u, err := ws.incumbentBound(g, p, tail, headIdx, L, blocked, opt.OverflowPenalty, opt.LengthWeight)
						if err != nil || u < opt.OverflowPenalty {
							t.Fatalf("trial %d L=%d: incumbent over a penalty edge: U=%v, err %v", trial, L, u, err)
						}
						incs = append(incs, p)
						penalty++
					}
				}
				for k, inc := range incs {
					where := fmt.Sprintf("trial %d (uniform=%v) L=%d %s incumbent %d %v->%v", trial, uniform, L, kernel, k, tail, head)
					path, chain, pops := forward(inc)
					if !slices.Equal(path, wantPath) {
						t.Fatalf("%s: path %v, reference %v", where, path, wantPath)
					}
					if chain[0].d != wantCost {
						t.Fatalf("%s: goal cost %v, reference %v", where, chain[0].d, wantCost)
					}
					if !slices.Equal(chain, wantChain) {
						t.Fatalf("%s: goal chain %v, reference %v", where, chain, wantChain)
					}
					if pops > unbPops {
						t.Fatalf("%s: forward pops %d with the incumbent, %d without", where, pops, unbPops)
					}
					if pops < unbPops {
						fewer++
					}
				}
			}
		}
	}
	t.Logf("bounded searches popping fewer forward states: %d; penalty-priced incumbents: %d", fewer, penalty)
	if fewer == 0 || penalty == 0 {
		t.Fatalf("bound never fired (%d) or no penalty-priced incumbent was built (%d)", fewer, penalty)
	}
}
