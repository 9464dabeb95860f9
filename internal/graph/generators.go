package graph

import (
	"math"
	"math/rand"
)

// WeightFunc produces an edge weight; generators call it once per edge.
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
func ErdosRenyi(n int, p float64, w WeightFunc, r *rand.Rand) *Graph {
	g := New(n)
	streamErdosRenyi(n, p, w, r, g.MustAddEdge)
	return g
}

// RandomGeometric places n points uniformly in the unit square and connects
// pairs within distance radius, weighting each edge by its Euclidean length
// (scaled by 1000 and floored at 1 to keep weights positive). A backbone
// path over the points sorted by x-coordinate keeps the graph connected;
// see streamGeometric.
func RandomGeometric(n int, radius float64, r *rand.Rand) *Graph {
	g := New(n)
	streamGeometric(n, radius, r, g.MustAddEdge)
	return g
}

// Grid generates a rows×cols grid with the given weights. Hop diameter is
// rows+cols-2, which makes it a good "large D" stress case.
func Grid(rows, cols int, w WeightFunc, r *rand.Rand) *Graph {
	g := New(rows * cols)
	streamGrid(rows, cols, w, r, g.MustAddEdge)
	return g
}

// Torus is Grid with wraparound edges, halving the diameter. The wrap edges
// are generated in the same edge stream as the grid edges (streamTorus).
func Torus(rows, cols int, w WeightFunc, r *rand.Rand) *Graph {
	g := New(rows * cols)
	streamTorus(rows, cols, w, r, g.MustAddEdge)
	return g
}

// BarabasiAlbert generates a preferential-attachment graph: each new vertex
// attaches to m existing vertices chosen proportionally to degree. Produces
// power-law degree distributions typical of P2P/social overlays. Each new
// vertex's target edges are emitted in ascending target order, making the
// edge stream deterministic for a given seed (see streamBarabasiAlbert).
func BarabasiAlbert(n, m int, w WeightFunc, r *rand.Rand) *Graph {
	g := New(n)
	streamBarabasiAlbert(n, m, w, r, g.MustAddEdge)
	return g
}

// Path generates the n-vertex path 0-1-...-(n-1).
func Path(n int, w WeightFunc, r *rand.Rand) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(i-1, i, w(r))
	}
	return g
}

// Cycle generates the n-vertex cycle.
func Cycle(n int, w WeightFunc, r *rand.Rand) *Graph {
	g := Path(n, w, r)
	if n > 2 {
		g.MustAddEdge(n-1, 0, w(r))
	}
	return g
}

// Star generates a star with center 0 and n-1 leaves.
func Star(n int, w WeightFunc, r *rand.Rand) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, i, w(r))
	}
	return g
}

// BalancedTree generates a complete b-ary tree on n vertices rooted at 0.
func BalancedTree(n, b int, w WeightFunc, r *rand.Rand) *Graph {
	if b < 2 {
		b = 2
	}
	g := New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v, (v-1)/b, w(r))
	}
	return g
}

// Caterpillar generates a caterpillar tree: a spine path of length spine with
// legs leaves attached round-robin. Deep spine + bushy legs exercises both
// the heavy-path and light-edge machinery of tree routing.
func Caterpillar(spine, legs int, w WeightFunc, r *rand.Rand) *Graph {
	g := New(spine + legs)
	for i := 1; i < spine; i++ {
		g.MustAddEdge(i-1, i, w(r))
	}
	for l := 0; l < legs; l++ {
		g.MustAddEdge(spine+l, l%spine, w(r))
	}
	return g
}

// RandomTree generates a uniformly random labelled tree on n vertices via a
// Prüfer sequence.
func RandomTree(n int, w WeightFunc, r *rand.Rand) *Graph {
	g := New(n)
	if n < 2 {
		return g
	}
	if n == 2 {
		g.MustAddEdge(0, 1, w(r))
		return g
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
		g.MustAddEdge(leaf, p, w(r))
		degree[p]--
		if degree[p] == 1 {
			h.Push(p, float64(p))
		}
	}
	u, _ := h.Pop()
	v, _ := h.Pop()
	g.MustAddEdge(u, v, w(r))
	return g
}

// Hypercube generates the d-dimensional hypercube (n = 2^d vertices).
func Hypercube(d int, w WeightFunc, r *rand.Rand) *Graph {
	g := New(1 << d)
	streamHypercube(d, w, r, g.MustAddEdge)
	return g
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
