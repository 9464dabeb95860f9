package hopset

import (
	"fmt"
	"slices"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

// BFResult is the outcome of BellmanFord: per-host-vertex distance
// estimates, parents (host neighbors) realising them, the seed each estimate
// descends from, and the number of iterations executed.
type BFResult struct {
	Dist       []float64
	Parent     []int
	Origin     []int
	Iterations int
}

// Wire format of the H-step broadcast: a virtual vertex's estimate inline
// (u, d) plus its stored hopset out-edges in the body (Hopset.AppendOut).
const (
	kindBEst congest.PayloadKind = 2

	bEstHeadWords = 2 // u and d
	hopRelaxWords = 3
)

// BFScratch is a reusable BellmanFord workspace. A steady-state call on a
// warm scratch allocates nothing: seed lists, broadcast messages, message
// bodies, the epoch-stamped relaxation table, and the result arrays are all
// recycled. Not safe for concurrent use.
type BFScratch struct {
	ex      *Explorer
	srcs    []Source
	msgs    []congest.BroadcastMsg
	bodies  congest.BodyBufs
	handler func(v int, d *congest.Delivery)

	// Pending hopset relaxations, held from the broadcast handler to the
	// end-of-iteration commit. Epoch stamps replace per-iteration maps.
	relaxEpoch int64
	relaxStamp []int64
	relaxD     []float64
	relaxU     []int
	relaxed    []int
	joins      []float64
	walk       []int

	dist   []float64
	parent []int
	origin []int
	result BFResult

	// Per-call bindings read by the broadcast handler.
	sim *congest.Simulator
	vg  *VirtualGraph
	hs  *Hopset
}

// NewBFScratch creates an empty BellmanFord workspace that explores through
// ex when it runs on ex's simulator. It binds itself to a simulator lazily
// on first use, with a fresh Explorer when ex is nil or bound elsewhere.
func NewBFScratch(ex *Explorer) *BFScratch {
	sc := &BFScratch{ex: ex}
	sc.handler = sc.onBEst
	return sc
}

func (sc *BFScratch) ensure(sim *congest.Simulator) {
	if sc.ex == nil || sc.ex.sim != sim {
		sc.ex = NewExplorer(sim)
	}
	n := sim.N()
	if len(sc.dist) != n {
		sc.dist = make([]float64, n)
		sc.parent = make([]int, n)
		sc.origin = make([]int, n)
		sc.relaxStamp = make([]int64, n)
		sc.relaxD = make([]float64, n)
		sc.relaxU = make([]int, n)
		sc.relaxEpoch = 0
	}
}

// onBEst handles the H-step broadcast at virtual vertex v. Relaxations
// charge v's meter, so the messages are read in order through At.
func (sc *BFScratch) onBEst(v int, dl *congest.Delivery) {
	if !sc.vg.IsMember(v) {
		return
	}
	for i := 0; i < dl.Len(); i++ {
		m := dl.At(i)
		if m == nil {
			continue
		}
		p := &m.Payload
		if p.Kind != kindBEst {
			continue
		}
		d := congest.WordFloat(p.W1)
		if d == graph.Infinity {
			continue
		}
		u := congest.WordInt(p.W0)
		sc.joins = sc.hs.AppendJoins(sc.joins[:0], v, u, m.Body)
		for _, w := range sc.joins {
			sc.relax(v, d+w, u)
		}
	}
}

// relax records a candidate hopset relaxation at v. The pending slot is
// per-vertex state held until the commit: charge on first touch per
// iteration, released at commit.
func (sc *BFScratch) relax(v int, alt float64, viaU int) {
	stamped := sc.relaxStamp[v] == sc.relaxEpoch
	if alt >= sc.result.Dist[v] || (stamped && alt >= sc.relaxD[v]) {
		return
	}
	if !stamped {
		sc.sim.Mem(v).Charge(hopRelaxWords)
		sc.relaxStamp[v] = sc.relaxEpoch
		sc.relaxed = append(sc.relaxed, v)
	}
	sc.relaxD[v] = alt
	sc.relaxU[v] = viaU
}

// BellmanFord runs iterations of Bellman-Ford in G' ∪ H from a set-source
// (Lemma 2): each iteration performs one B-bounded exploration in the host
// graph (covering the implicit E' and informing all host vertices) and one
// broadcast pass over the hopset edges (each virtual vertex announces its
// estimate and its stored out-edges; α = MaxOutDegree bounds the per-vertex
// work and memory). Estimates never drop below true host distances; with a
// valid (β,ε)-hopset they reach (1+ε)-accuracy within β iterations. It runs
// to convergence and reports the realised iteration count, the empirical β.
//
// sc is the workspace: the returned BFResult aliases it and is valid until
// its next use. A nil sc allocates a private workspace, so the result is
// caller-owned.
func BellmanFord(sim *congest.Simulator, vg *VirtualGraph, hs *Hopset, seeds []Source, sc *BFScratch) (*BFResult, error) {
	if sc == nil {
		sc = NewBFScratch(nil)
	}
	return sc.run(sim, vg, hs, seeds)
}

func (sc *BFScratch) run(sim *congest.Simulator, vg *VirtualGraph, hs *Hopset, seeds []Source) (*BFResult, error) {
	n := sim.N()
	sc.ensure(sim)
	sc.sim, sc.vg, sc.hs = sim, vg, hs
	res := &sc.result
	res.Dist, res.Parent, res.Origin = sc.dist, sc.parent, sc.origin
	res.Iterations = 0
	for i := range res.Dist {
		res.Dist[i] = graph.Infinity
		res.Parent[i] = graph.NoVertex
		res.Origin[i] = graph.NoVertex
	}
	for _, s := range seeds {
		if s.At < 0 || s.At >= n {
			return nil, fmt.Errorf("hopset: BF seed %d out of range", s.At)
		}
		if s.Dist < res.Dist[s.At] {
			res.Dist[s.At] = s.Dist
			res.Origin[s.At] = s.At
		}
	}
	if len(seeds) == 0 {
		return res, nil
	}
	maxIter := 4 * (vg.M() + 1)

	// Estimates per virtual vertex are charged once (1 word); host entries
	// are charged inside Explore.
	for _, u := range vg.Members() {
		sim.Mem(u).Charge(1)
	}

	const bfRoot = -2
	for iter := 0; iter < maxIter; iter++ {
		changed := false

		// E' step: one B-bounded exploration from every vertex holding a
		// finite estimate (this simultaneously delivers estimates to all
		// host vertices, virtual or not).
		sc.srcs = sc.srcs[:0]
		for v := 0; v < n; v++ {
			if res.Dist[v] != graph.Infinity {
				sc.srcs = append(sc.srcs, Source{Root: bfRoot, At: v, Dist: res.Dist[v]})
			}
		}
		ex, err := sc.ex.Explore(sc.srcs, ExploreOptions{Hops: vg.B()})
		if err != nil {
			return nil, fmt.Errorf("hopset: BF iteration %d: %w", iter, err)
		}
		for v := 0; v < n; v++ {
			e, ok := ex.Get(v, bfRoot)
			if !ok || e.Dist >= res.Dist[v] {
				continue
			}
			res.Dist[v] = e.Dist
			res.Origin[v] = res.Origin[e.Origin]
			if e.Parent != graph.NoVertex {
				res.Parent[v] = e.Parent
			}
			changed = true
		}

		// H step: every virtual vertex broadcasts its estimate and its
		// stored out-edges; both endpoints of each edge relax.
		sc.msgs = sc.msgs[:0]
		for _, u := range vg.Members() {
			out := hs.Out(u)
			if res.Dist[u] == graph.Infinity && len(out) == 0 {
				continue
			}
			body := hs.AppendOut(sc.bodies.Get(len(sc.msgs), EdgeWords*len(out))[:0], u)
			sc.msgs = append(sc.msgs, congest.BroadcastMsg{
				Origin: u,
				Payload: congest.Payload{
					Kind: kindBEst,
					W0:   congest.IntWord(u),
					W1:   congest.FloatWord(res.Dist[u]),
				},
				Words: bEstHeadWords + EdgeWords*len(out),
				Body:  body,
			})
		}
		sc.relaxEpoch++
		sc.relaxed = sc.relaxed[:0]
		sim.Broadcast(sc.msgs, sc.handler)
		// Commit in sorted vertex order: res.Origin[viaU] below may read an
		// entry this same loop writes, so arrival order must not decide
		// which value it sees.
		slices.Sort(sc.relaxed)
		for _, v := range sc.relaxed {
			sim.Mem(v).Release(hopRelaxWords)
			if sc.relaxD[v] < res.Dist[v] {
				viaU := sc.relaxU[v]
				res.Dist[v] = sc.relaxD[v]
				res.Origin[v] = res.Origin[viaU]
				// The realising walk enters v over a hopset edge; the host
				// parent is v's neighbor on that edge's recovery path.
				var ok bool
				if sc.walk, ok = hs.Walk(sc.walk[:0], v, viaU); ok && len(sc.walk) > 1 {
					res.Parent[v] = sc.walk[1]
				}
				changed = true
			}
		}

		res.Iterations = iter + 1
		if !changed {
			break
		}
	}
	return res, nil
}
