package graph

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// CSR is an immutable compressed-sparse-row adjacency: one flat int32
// offset array, one flat int32 neighbor array, and quantized edge weights.
// It is built once (FromGraph or CSRBuilder.Build) and then shared
// read-only across the simulator, the construction phases, the centralized
// oracles and the data plane — no per-vertex slice headers, no neighbor
// structs, no pointers for the GC to trace.
//
// Weights are stored as uint16 indices into a sorted table of the distinct
// weight values whenever the graph has at most 65536 distinct weights
// (every generator family in this repo is far below that); otherwise a
// plain []float64 fallback is kept. Either way ArcWeight returns the exact
// float64 the edge was added with, so a build over FromGraph(g) sees
// exactly g's weights.
//
// Footprint: 4(n+1) + 4·2m bytes of structure plus 2·2m bytes of weight
// classes — about 12 bytes per undirected edge, versus ~24 bytes plus a
// slice header and allocator slack per edge for *Graph's adjacency lists.
type CSR struct {
	off     []int32   // len n+1; arcs of u are [off[u], off[u+1])
	to      []int32   // len 2m; neighbor of each arc, adjacency order
	wcls    []uint16  // len 2m when the class table is in use
	classes []float64 // sorted distinct weights, indexed by wcls
	w64     []float64 // len 2m fallback when >65536 distinct weights
	m       int
}

// N returns the number of vertices.
func (c *CSR) N() int { return len(c.off) - 1 }

// M returns the number of undirected edges.
func (c *CSR) M() int { return c.m }

// Degree returns the number of arcs leaving u.
func (c *CSR) Degree(u int) int { return int(c.off[u+1] - c.off[u]) }

// NeighborRange returns u's neighbors in adjacency order and the global id
// of u's first arc. The slice aliases the CSR's backing array: read-only.
func (c *CSR) NeighborRange(u int) ([]int32, int) {
	lo := c.off[u]
	return c.to[lo:c.off[u+1]], int(lo)
}

// ArcWeight returns the weight of directed arc a.
func (c *CSR) ArcWeight(a int) float64 {
	if c.w64 != nil {
		return c.w64[a]
	}
	return c.classes[c.wcls[a]]
}

// WeightClasses returns the number of distinct edge weights, or 0 when the
// class table was abandoned for the float64 fallback.
func (c *CSR) WeightClasses() int { return len(c.classes) }

// MemoryBytes returns the resident size of the CSR's flat arrays — the
// number the scale harness reports as the topology's share of the heap.
func (c *CSR) MemoryBytes() int64 {
	b := int64(len(c.off))*4 + int64(len(c.to))*4
	b += int64(len(c.wcls))*2 + int64(len(c.classes))*8 + int64(len(c.w64))*8
	return b
}

// FromGraph freezes the builder g into a CSR, preserving per-vertex
// adjacency order exactly: NeighborRange(u) lists u's neighbors in the
// order its edges were added, so handlers and oracles see the same
// neighbor sequence whether the CSR was frozen from g or streamed by
// GenerateCSR, and message traces stay byte-identical. Adjacency lists
// hold each edge twice, so weights are classed per arc.
func FromGraph(g *Graph) *CSR {
	n := g.N()
	c := &CSR{off: make([]int32, n+1), m: g.M()}
	wc := newWeightClasser()
	arcs := 0
	for u := 0; u < n; u++ {
		for _, nb := range g.adj[u] {
			wc.add(nb.Weight)
		}
		arcs += len(g.adj[u])
		c.off[u+1] = int32(arcs)
	}
	c.to = make([]int32, arcs)
	c.allocWeights(wc)
	a := 0
	for u := 0; u < n; u++ {
		for _, nb := range g.adj[u] {
			c.to[a] = int32(nb.To)
			if c.w64 != nil {
				c.w64[a] = nb.Weight
			} else {
				c.wcls[a] = wc.class(nb.Weight)
			}
			a++
		}
	}
	return c
}

// Thaw returns an edge-by-edge builder holding c's edges: vertex u's
// adjacency list is u's arcs in c's order, so FromGraph(c.Thaw()) equals c
// and edges added to the builder land after the ones c had, exactly where
// they would have landed on the builder c was frozen from.
func (c *CSR) Thaw() *Graph {
	g := &Graph{adj: make([][]neighbor, c.N()), edges: c.m}
	arcs := make([]neighbor, len(c.to))
	for a, v := range c.to {
		arcs[a] = neighbor{To: int(v), Weight: c.ArcWeight(a)}
	}
	for u := range g.adj {
		// Capped at u's arcs, so an append copies instead of overwriting
		// u+1's list.
		g.adj[u] = arcs[c.off[u]:c.off[u+1]:c.off[u+1]]
	}
	return g
}

// allocWeights sizes the per-arc weight storage for len(c.to) arcs: the
// uint16 classes of wc's ranked table, or the float64 fallback when wc saw
// more than maxWeightClasses distinct weights. It runs after every weight
// was added and before any is stored, so a freeze allocates only the
// representation it keeps.
func (c *CSR) allocWeights(wc *weightClasser) {
	if wc.over {
		c.w64 = make([]float64, len(c.to))
		return
	}
	c.classes = wc.rank()
	c.wcls = make([]uint16, len(c.to))
}

// maxWeightClasses is the number of distinct weights a uint16 class can name.
const maxWeightClasses = 1 << 16

// weightClasser maps each distinct edge weight to its class: its rank among
// the topology's distinct weights in ascending order, which is the index
// ArcWeight reads back through CSR.classes. It is an open-addressed,
// linearly probed table keyed by math.Float64bits. Weights are positive
// and finite, so bit equality is float equality and no key is 0, which
// marks an empty slot. A freeze adds every weight, ranks the table once,
// then looks each weight up again with class.
type weightClasser struct {
	keys  []uint64 // Float64bits of the weight in each slot; 0 = empty
	ranks []uint16 // class of the weight in the same slot, set by rank
	shift uint     // 64 - log2(len(keys)): a key's home slot is its hash >> shift
	n     int      // distinct weights added
	over  bool     // a weight past maxWeightClasses was added; keys is abandoned
}

func newWeightClasser() *weightClasser {
	wc := &weightClasser{}
	wc.resize(16)
	return wc
}

// slot returns the slot holding key k, or the empty slot where k belongs.
func (wc *weightClasser) slot(k uint64) int {
	mask := len(wc.keys) - 1
	i := int((k * 0x9e3779b97f4a7c15) >> wc.shift) // Fibonacci hashing
	for wc.keys[i] != 0 && wc.keys[i] != k {
		i = (i + 1) & mask
	}
	return i
}

// add records w; once more than maxWeightClasses distinct weights were
// seen, it stops and marks the classer over.
func (wc *weightClasser) add(w float64) {
	if wc.over {
		return
	}
	k := math.Float64bits(w)
	i := wc.slot(k)
	if wc.keys[i] == k {
		return
	}
	if wc.n == maxWeightClasses {
		wc.over, wc.keys = true, nil
		return
	}
	wc.keys[i] = k
	wc.n++
	if 2*wc.n > len(wc.keys) {
		wc.resize(2 * len(wc.keys))
	}
}

// resize rehashes the keys into a table of size slots, a power of two.
func (wc *weightClasser) resize(size int) {
	old := wc.keys
	wc.keys = make([]uint64, size)
	wc.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, k := range old {
		if k != 0 {
			wc.keys[wc.slot(k)] = k
		}
	}
}

// rank sorts the distinct weights into the class table it returns and
// records each weight's class in its slot.
func (wc *weightClasser) rank() []float64 {
	classes := make([]float64, 0, wc.n)
	for _, k := range wc.keys {
		if k != 0 {
			classes = append(classes, math.Float64frombits(k))
		}
	}
	sort.Float64s(classes)
	wc.ranks = make([]uint16, len(wc.keys))
	for r, w := range classes {
		wc.ranks[wc.slot(math.Float64bits(w))] = uint16(r)
	}
	return classes
}

// class returns the class of a weight that was added before rank.
func (wc *weightClasser) class(w float64) uint16 {
	return wc.ranks[wc.slot(math.Float64bits(w))]
}

// CSRBuilder accumulates a fixed-order edge stream and compacts it into a
// CSR with a stable counting sort. Streaming generators emit into it
// directly: transient state is three flat arrays of 16 bytes per edge, and
// the per-vertex neighbor order of the built CSR equals the order AddEdge
// touched each endpoint — exactly the order Graph.AddEdge would have
// appended, so builder output is bit-identical to FromGraph of a *Graph
// fed the same edge stream.
type CSRBuilder struct {
	n  int
	eu []int32
	ev []int32
	ew []float64
}

// NewCSRBuilder returns a builder for an n-vertex topology.
func NewCSRBuilder(n int) *CSRBuilder {
	if n < 0 {
		panic(fmt.Sprintf("graph: NewCSRBuilder(%d): negative size", n))
	}
	return &CSRBuilder{n: n}
}

// reserve presizes the edge stream for m edges, so a generator that knows
// its edge count streams without regrowing the arrays.
func (b *CSRBuilder) reserve(m int) {
	b.eu = make([]int32, 0, m)
	b.ev = make([]int32, 0, m)
	b.ew = make([]float64, 0, m)
}

// N returns the number of vertices.
func (b *CSRBuilder) N() int { return b.n }

// M returns the number of edges added so far.
func (b *CSRBuilder) M() int { return len(b.eu) }

// AddEdge appends the undirected edge {u,v} with weight w to the stream.
// Like Graph.MustAddEdge it panics on self-loops, out-of-range endpoints,
// or non-positive weights — generators emit only valid edges.
func (b *CSRBuilder) AddEdge(u, v int, w float64) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n || u == v || !(w > 0) || math.IsInf(w, 0) {
		panic(fmt.Sprintf("graph: CSRBuilder.AddEdge(%d, %d, %g) invalid for n=%d", u, v, w, b.n))
	}
	b.eu = append(b.eu, int32(u))
	b.ev = append(b.ev, int32(v))
	b.ew = append(b.ew, w)
}

// Build compacts the accumulated edge stream into a CSR and releases the
// builder's transient arrays. The counting sort is stable in edge order,
// so vertex u's arcs appear in the order edges incident to u were added —
// matching Graph.AddEdge adjacency order (u's entry first, then v's, per
// call). Each edge's weight is classed once and written into both arcs.
func (b *CSRBuilder) Build() *CSR {
	n, m := b.n, len(b.eu)
	eu, ev, ew := b.eu[:m], b.ev[:m], b.ew[:m]
	off, to := make([]int32, n+1), make([]int32, 2*m)
	c := &CSR{off: off, to: to, m: m}
	wc := newWeightClasser()
	for i, u := range eu {
		off[u]++
		off[ev[i]]++
		wc.add(ew[i])
	}
	// off[u] counts u's arcs; the running sum turns it into the end of u's
	// range. The scatter walks the edges backwards and decrements off[u]
	// per arc, so it fills each range back to front in edge order and
	// leaves off[u] at u's first arc.
	for u := 1; u < n; u++ {
		off[u] += off[u-1]
	}
	off[n] = int32(2 * m)
	c.allocWeights(wc)
	for i := m - 1; i >= 0; i-- {
		u, v, w := eu[i], ev[i], ew[i]
		off[u]--
		off[v]--
		a, z := off[u], off[v]
		to[a], to[z] = v, u
		if c.w64 != nil {
			c.w64[a], c.w64[z] = w, w
		} else {
			k := wc.class(w)
			c.wcls[a], c.wcls[z] = k, k
		}
	}
	b.eu, b.ev, b.ew = nil, nil, nil
	return c
}
