package hopset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/trace"
)

// Options configures the hopset construction.
type Options struct {
	// Kappa is the number of sampling levels (the κ of Theorem 1).
	// Defaults to 3; larger κ shrinks per-vertex memory (arboricity
	// m^{1/κ}) at the cost of a larger realised hop bound β.
	Kappa int
	// Seed drives the level sampling.
	Seed int64
}

// hopGrowth multiplies the exploration hop budget at each level: cluster
// radii grow with level.
const hopGrowth = 3

// Edge is one hopset edge, oriented from the vertex that stores it toward
// the cluster/pivot center it connects to.
type Edge struct {
	To     int
	Weight float64
	Level  int
	// path is the host path from the storing vertex to To that realises
	// Weight (path recovery); read it through Hopset.Walk.
	path []int
}

// Hopset is a (β,ε)-hopset for a virtual graph, with out-degree-bounded
// orientation (the arboricity witness) and path recovery.
type Hopset struct {
	vg *VirtualGraph
	// out[v] holds the edges stored at (oriented out of) host vertex v, in
	// insertion order, at most α of them. The distributed knowledge backing
	// their paths - per-vertex parent pointers - is charged to the meters
	// during construction; the paths are simulation bookkeeping.
	out [][]Edge
}

// Build constructs a hopset for vg on the simulator, charging its
// communication to the simulator's counters. The construction is a
// Thorup-Zwick-style sampling hierarchy: each level samples surviving
// centers with probability m^{-1/κ}; every virtual vertex connects to its
// nearest next-level center (pivot) and to every center of the current level
// that is closer than the pivot (its bunch). All distances come from
// hop-bounded explorations in the host graph - E' is never materialised -
// run on ex's simulator through ex's workspace. Each level runs under a
// span on the simulator's trace sink, with pivots/clusters sub-spans.
func Build(ex *Explorer, vg *VirtualGraph, opts Options) (*Hopset, error) {
	sim := ex.sim
	kappa := opts.Kappa
	if kappa < 2 {
		kappa = 3
	}
	m := vg.M()
	hs := &Hopset{vg: vg, out: make([][]Edge, sim.N())}
	if m == 0 {
		return hs, nil
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	p := math.Pow(float64(m), -1/float64(kappa))

	level := append([]int(nil), vg.Members()...)
	hops := vg.B()
	maxHops := 4 * sim.N()
	for i := 0; i < kappa && len(level) > 0; i++ {
		levelSpan := trace.Begin(sim.Trace(), fmt.Sprintf("hopset-level-%d", i))
		var next []int
		if i < kappa-1 {
			for _, v := range level {
				if rng.Float64() < p {
					next = append(next, v)
				}
			}
		}

		// Pivot distances d(·, W_{i+1}) at every host vertex.
		pivotSpan := trace.Begin(sim.Trace(), "pivots")
		pivotDist, pivotParent, pivotOrigin, err := ex.DistToSet(next, hops)
		pivotSpan.End()
		if err != nil {
			levelSpan.End()
			return nil, fmt.Errorf("hopset: level %d pivots: %w", i, err)
		}
		// The pivot field (dist + parent) is retained for the level.
		for v := range pivotDist {
			if pivotDist[v] != graph.Infinity {
				sim.Mem(v).Charge(2)
			}
		}

		// Cluster explorations from every center of this level, limited by
		// the pivot distance (the Thorup-Zwick condition).
		srcs := make([]Source, 0, len(level))
		for _, w := range level {
			srcs = append(srcs, Source{Root: w, At: w, Dist: 0})
		}
		limit := func(v, root int, d float64) bool { return d < pivotDist[v] }
		clusterSpan := trace.Begin(sim.Trace(), "clusters")
		res, err := ex.Explore(srcs, ExploreOptions{Hops: hops, Limit: limit})
		clusterSpan.End()
		if err != nil {
			levelSpan.End()
			return nil, fmt.Errorf("hopset: level %d clusters: %w", i, err)
		}
		// Cluster entries (dist + parent per center) back the
		// path-recovery mechanism and are retained.
		for v := 0; v < sim.N(); v++ {
			sim.Mem(v).Charge(3 * int64(len(res.At(v))))
		}

		// Bunch edges: u -> w for every center w whose cluster reached u.
		// Every root in res is a center of this level. At(u) is
		// root-ascending, so hs.out slices (and therefore the BF broadcast
		// payloads built from them) have a canonical order.
		for _, u := range vg.Members() {
			for _, re := range res.At(u) {
				w := re.Root
				if w == u {
					continue
				}
				if re.Dist >= pivotDist[u] {
					continue // not strictly inside the bunch
				}
				hs.addEdge(sim, u, w, re.Dist, i, res.PathToSeed(u, w))
			}
			// Pivot edge: u -> nearest next-level center.
			if z := pivotOrigin[u]; z != graph.NoVertex && z != u {
				hs.addEdge(sim, u, z, pivotDist[u], i, chaseParents(u, pivotParent))
			}
		}

		level = next
		hops *= hopGrowth
		if hops > maxHops {
			hops = maxHops
		}
		levelSpan.End()
	}
	return hs, nil
}

// chaseParents walks parent pointers from u back to a seed.
func chaseParents(u int, parent []int) []int {
	var path []int
	for x := u; x != graph.NoVertex; x = parent[x] {
		path = append(path, x)
		if len(path) > len(parent) {
			break // defensive: corrupt pointers must not loop forever
		}
	}
	return path
}

func (h *Hopset) addEdge(sim *congest.Simulator, from, to int, w float64, level int, path []int) {
	if h.find(from, to) != nil {
		return
	}
	h.out[from] = append(h.out[from], Edge{To: to, Weight: w, Level: level, path: path})
	sim.Mem(from).Charge(EdgeWords)
}

// find returns the edge (from -> to) stored at from, or nil.
func (h *Hopset) find(from, to int) *Edge {
	es := h.Out(from)
	for i := range es {
		if es[i].To == to {
			return &es[i]
		}
	}
	return nil
}

// Out returns the hopset edges stored at (oriented out of) virtual vertex v,
// in insertion order.
func (h *Hopset) Out(v int) []Edge { return h.out[v] }

// Size returns the number of oriented hopset edges.
func (h *Hopset) Size() int {
	t := 0
	for _, es := range h.out {
		t += len(es)
	}
	return t
}

// MaxOutDegree returns the maximum number of hopset edges stored at any
// virtual vertex - the arboricity witness α of Lemma 2 (orienting every
// edge out of its storing endpoint decomposes the hopset into at most α
// forests).
func (h *Hopset) MaxOutDegree() int {
	mx := 0
	for _, es := range h.out {
		mx = max(mx, len(es))
	}
	return mx
}

// Walk appends to dst the host walk that realises the hopset edge joining x
// and w, from x to w, and reports whether such an edge exists. x's own edge
// (x -> w) is preferred; otherwise w's edge (w -> x) is walked backwards.
func (h *Hopset) Walk(dst []int, x, w int) ([]int, bool) {
	if e := h.find(x, w); e != nil {
		return append(dst, e.path...), true
	}
	e := h.find(w, x)
	if e == nil {
		return dst, false
	}
	for i := len(e.path) - 1; i >= 0; i-- {
		dst = append(dst, e.path[i])
	}
	return dst, true
}

// EdgeWords is the wire size of one hopset edge in an H-step broadcast
// body: To, Weight and Level.
const EdgeWords = 3

// AppendOut appends v's stored out-edges, in storage order, to dst as
// (To, Weight, Level) words: the body of v's H-step broadcasts.
func (h *Hopset) AppendOut(dst []uint64, v int) []uint64 {
	for _, e := range h.Out(v) {
		dst = append(dst, congest.IntWord(e.To), congest.FloatWord(e.Weight), congest.IntWord(e.Level))
	}
	return dst
}

// AppendJoins appends to dst the weights of the hopset edges that join the
// receiver v of an H-step broadcast to its sender u, whose out-edges arrived
// as edges (written by AppendOut): first u's edges to v, in body order, then
// v's own edges to u. Each weight relaxes v once, in this order.
func (h *Hopset) AppendJoins(dst []float64, v, u int, edges []uint64) []float64 {
	for j := 0; j+EdgeWords <= len(edges); j += EdgeWords {
		if congest.WordInt(edges[j]) == v {
			dst = append(dst, congest.WordFloat(edges[j+1]))
		}
	}
	for _, e := range h.Out(v) {
		if e.To == u {
			dst = append(dst, e.Weight)
		}
	}
	return dst
}

// Edges returns all oriented hopset edges sorted by (From, To).
func (h *Hopset) Edges() []struct {
	From int
	Edge
} {
	var out []struct {
		From int
		Edge
	}
	for from, es := range h.out {
		start := len(out)
		for _, e := range es {
			out = append(out, struct {
				From int
				Edge
			}{From: from, Edge: e})
		}
		seg := out[start:]
		sort.Slice(seg, func(i, j int) bool { return seg[i].To < seg[j].To })
	}
	return out
}
