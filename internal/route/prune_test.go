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
		ws.astarArmPath(g, headIdx, blocked, opt)
		pops += ws.astar.armPops
	}
	start := g.TileIndex(tail) * L
	ws.sStamp[start] = ep
	ws.sDist[start] = 0
	ws.sPred[start] = -1
	ws.sDone[start] = false
	ws.qPush(pqItem{start, 0})
	goal := -1
	memo := opt.Weight == nil
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
			wc := ws.edgeCostMemo(g, int(edges[x]), opt, memo)
			var hw float64
			if kern == kAstar {
				hw = ws.astarHPath(w)
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
			if nd := ds + wc + siteCostClamped(g, w, opt); nd < ws.sDist[ns] {
				ws.sDist[ns] = nd
				ws.sPred[ns] = int32(s)
				ws.qPush(pqItem{ns, nd + hw})
			}
		}
	}
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
				path, err := BufferAwarePath(g, tail, head, L, blocked, popt, ws)
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
