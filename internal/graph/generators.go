package graph

import (
	"math"
	"math/rand"
)

// WeightFunc produces an edge weight; generators call it once per edge and
// stream the result unchecked, so it must return positive finite weights.
type WeightFunc func(r *rand.Rand) float64

// UnitWeights assigns weight 1 to every edge.
func UnitWeights(*rand.Rand) float64 { return 1 }

// UniformWeights returns a WeightFunc drawing uniformly from [lo, hi).
func UniformWeights(lo, hi float64) WeightFunc {
	return func(r *rand.Rand) float64 { return lo + r.Float64()*(hi-lo) }
}

// IntegerWeights returns a WeightFunc drawing uniformly from {1, ..., max}.
func IntegerWeights(max int) WeightFunc {
	return func(r *rand.Rand) float64 { return float64(1 + r.Intn(max)) }
}

// ErdosRenyi generates G(n, p) with the given weight function, plus a
// random Hamiltonian-path backbone so the result is always connected (the
// standard trick for benchmarking on connected instances); see
// streamErdosRenyi.
func ErdosRenyi(n int, p float64, w WeightFunc, r *rand.Rand) *CSR {
	b := NewCSRBuilder(n)
	streamErdosRenyi(n, p, w, r, b.add)
	return b.Build()
}

// RandomGeometric places n points uniformly in the unit square and connects
// pairs within distance radius, weighting each edge by its Euclidean length
// (scaled by 1000 and floored at 1 to keep weights positive). A backbone
// path over the points sorted by x-coordinate keeps the graph connected;
// see streamGeometric.
func RandomGeometric(n int, radius float64, r *rand.Rand) *CSR {
	b := NewCSRBuilder(n)
	streamGeometric(n, radius, r, b.add)
	return b.Build()
}

// Grid generates a rows×cols grid with the given weights, laid out in
// place (see lattice). Hop diameter is rows+cols-2, which makes it a good
// "large D" stress case.
func Grid(rows, cols int, w WeightFunc, r *rand.Rand) *CSR {
	return lattice(rows, cols, false, w, r)
}

// Torus is Grid with wraparound edges, halving the diameter. Its weights
// are the grid's draws, then one per row wrap and one per column wrap.
func Torus(rows, cols int, w WeightFunc, r *rand.Rand) *CSR {
	return lattice(rows, cols, true, w, r)
}

// BarabasiAlbert generates a preferential-attachment graph: each new vertex
// attaches to m existing vertices chosen proportionally to degree. Produces
// power-law degree distributions typical of P2P/social overlays. Each new
// vertex's target edges are emitted in ascending target order, making the
// edge stream deterministic for a given seed (see streamBarabasiAlbert).
func BarabasiAlbert(n, m int, w WeightFunc, r *rand.Rand) *CSR {
	b := NewCSRBuilder(n)
	streamBarabasiAlbert(n, m, w, r, b.add)
	return b.Build()
}

// Hypercube generates the d-dimensional hypercube (n = 2^d vertices).
func Hypercube(d int, w WeightFunc, r *rand.Rand) *CSR {
	b := NewCSRBuilder(1 << d)
	streamHypercube(d, w, r, b.add)
	return b.Build()
}

// Path generates the n-vertex path 0-1-...-(n-1).
func Path(n int, w WeightFunc, r *rand.Rand) *CSR {
	b := NewCSRBuilder(n)
	for i := 1; i < n; i++ {
		b.add(i-1, i, w(r))
	}
	return b.Build()
}

// Cycle generates the n-vertex cycle: the path, then the edge closing it.
func Cycle(n int, w WeightFunc, r *rand.Rand) *CSR {
	b := NewCSRBuilder(n)
	for i := 1; i < n; i++ {
		b.add(i-1, i, w(r))
	}
	if n > 2 {
		b.add(n-1, 0, w(r))
	}
	return b.Build()
}

// Star generates a star with center 0 and n-1 leaves.
func Star(n int, w WeightFunc, r *rand.Rand) *CSR {
	b := NewCSRBuilder(n)
	for i := 1; i < n; i++ {
		b.add(0, i, w(r))
	}
	return b.Build()
}

// BalancedTree generates a complete b-ary tree on n vertices rooted at 0.
func BalancedTree(n, arity int, w WeightFunc, r *rand.Rand) *CSR {
	arity = max(arity, 2)
	b := NewCSRBuilder(n)
	for v := 1; v < n; v++ {
		b.add(v, (v-1)/arity, w(r))
	}
	return b.Build()
}

// Caterpillar generates a caterpillar tree: a spine path of length spine with
// legs leaves attached round-robin. Deep spine + bushy legs exercises both
// the heavy-path and light-edge machinery of tree routing.
func Caterpillar(spine, legs int, w WeightFunc, r *rand.Rand) *CSR {
	b := NewCSRBuilder(spine + legs)
	for i := 1; i < spine; i++ {
		b.add(i-1, i, w(r))
	}
	for l := 0; l < legs; l++ {
		b.add(spine+l, l%spine, w(r))
	}
	return b.Build()
}

// RandomTree generates a uniformly random labelled tree on n vertices via a
// Prüfer sequence.
func RandomTree(n int, w WeightFunc, r *rand.Rand) *CSR {
	b := NewCSRBuilder(n)
	if n < 2 {
		return b.Build()
	}
	prufer := make([]int, n-2)
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for i := range prufer {
		prufer[i] = r.Intn(n)
		degree[prufer[i]]++
	}
	// Standard decoding with a min-heap over leaves.
	h := newVertexHeap(n)
	for v := 0; v < n; v++ {
		if degree[v] == 1 {
			h.Push(v, float64(v))
		}
	}
	for _, p := range prufer {
		leaf, _ := h.Pop()
		b.add(leaf, p, w(r))
		degree[p]--
		if degree[p] == 1 {
			h.Push(p, float64(p))
		}
	}
	u, _ := h.Pop()
	v, _ := h.Pop()
	b.add(u, v, w(r))
	return b.Build()
}

// Family names a graph generator for benchmark sweeps.
type Family string

// Generator families available to the benchmark harness.
const (
	FamilyErdosRenyi Family = "erdos-renyi"
	FamilyGeometric  Family = "geometric"
	FamilyGrid       Family = "grid"
	FamilyTorus      Family = "torus"
	FamilyPowerLaw   Family = "power-law"
	FamilyHypercube  Family = "hypercube"
)

// Density defaults of GenerateCSR's families.

func erdosRenyiDefaultP(n int) float64 {
	return 4 * math.Log(float64(n+2)) / float64(n+1)
}

func geometricDefaultRadius(n int) float64 {
	return 1.8 * math.Sqrt(math.Log(float64(n+2))/float64(n+1))
}

func gridDefaultDims(n int) (rows, cols int) {
	side := int(math.Round(math.Sqrt(float64(n))))
	if side < 1 {
		side = 1
	}
	return side, (n + side - 1) / side
}

func hypercubeDefaultDim(n int) int {
	d := 0
	for 1<<d < n {
		d++
	}
	return d
}
