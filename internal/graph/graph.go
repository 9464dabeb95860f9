// Package graph provides the weighted undirected graph substrate used by the
// routing schemes. A graph has one in-memory form, the immutable CSR; the
// CSRBuilder is the only way to make one, from an edge stream that the
// generators, the facade's link-by-link edits and the materialised virtual
// graphs all feed. On top of it sit the algorithms that read a Topology
// (Dijkstra, bounded-hop Bellman-Ford, BFS, diameter measures, spanning
// trees), the Section 2 weight quantization, and rooted-tree utilities
// (heavy-child decomposition, DFS intervals).
//
// All algorithms are deterministic given the caller-supplied *rand.Rand.
package graph

import (
	"errors"
	"fmt"
	"math"
)

// Infinity is the distance value used for unreachable vertices.
const Infinity = math.MaxFloat64

// NoVertex marks an absent vertex id (e.g. the parent of a root).
const NoVertex = -1

// ErrDisconnected is returned by algorithms that require a connected graph.
var ErrDisconnected = errors.New("graph: not connected")

// emptyCSR is the graph with no vertices, the prefix of a fresh builder.
var emptyCSR = &CSR{off: []int32{0}}

// CSRBuilder accumulates an edge stream on vertices 0..N()-1 and freezes it
// into a CSR with a stable counting sort. Transient state is three flat
// arrays of 16 bytes per edge, plus the CSR it was thawed from, which it
// keeps as a read-only prefix. Vertex u's arcs in the built CSR
// are its prefix arcs in the prefix's order, then one arc per added edge
// incident to u in the order the edges were added (u's arc before v's for
// an edge {u,v}), so a thawed and extended graph equals one streamed in a
// single pass. Parallel edges are kept.
type CSRBuilder struct {
	n      int
	prefix *CSR // edges frozen before the stream; emptyCSR for a fresh builder
	eu     []int32
	ev     []int32
	ew     []float64
}

// NewCSRBuilder returns a builder for a graph with n isolated vertices; a
// negative n counts as 0.
func NewCSRBuilder(n int) *CSRBuilder {
	return &CSRBuilder{n: max(n, 0), prefix: emptyCSR}
}

// Thaw returns a builder that holds c as its prefix: c.Thaw().Build()
// equals c bit for bit, and an edge added to the builder lands after the
// arcs c had, exactly where it would have landed had it been added to the
// stream c was built from.
func (c *CSR) Thaw() *CSRBuilder { return &CSRBuilder{n: c.N(), prefix: c} }

// reserve presizes the edge stream for m edges, so a generator that knows
// its edge count streams without regrowing the arrays.
func (b *CSRBuilder) reserve(m int) {
	b.eu = make([]int32, 0, m)
	b.ev = make([]int32, 0, m)
	b.ew = make([]float64, 0, m)
}

// N returns the number of vertices.
func (b *CSRBuilder) N() int { return b.n }

// M returns the number of edges, the prefix's included.
func (b *CSRBuilder) M() int { return b.prefix.m + len(b.eu) }

// AddVertex appends an isolated vertex and returns its id.
func (b *CSRBuilder) AddVertex() int {
	b.n++
	return b.n - 1
}

// AddEdge appends the undirected edge {u,v} with weight w to the stream. It
// returns an error for out-of-range endpoints, self loops, or non-positive
// or non-finite weights.
func (b *CSRBuilder) AddEdge(u, v int, w float64) error {
	switch {
	case u < 0 || u >= b.n || v < 0 || v >= b.n:
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
	case u == v:
		return fmt.Errorf("graph: self loop at %d", u)
	case !(w > 0) || math.IsInf(w, 0):
		return fmt.Errorf("graph: invalid weight %v on {%d,%d}", w, u, v)
	}
	b.add(u, v, w)
	return nil
}

// add is AddEdge without the check, for generators whose edges are valid
// by construction.
func (b *CSRBuilder) add(u, v int, w float64) {
	b.eu = append(b.eu, int32(u))
	b.ev = append(b.ev, int32(v))
	b.ew = append(b.ew, w)
}

// Build freezes the prefix and the edge stream into a CSR. The builder then
// holds that CSR as its prefix, as if Thaw had returned it, so edges added
// later extend it. Each weight is hashed once: the count pass records every
// edge's insertion id in the weight classer, and the scatter maps ids to
// classes through a table.
func (b *CSRBuilder) Build() *CSR {
	n, m, p := b.n, len(b.eu), b.prefix
	eu, ev, ew := b.eu[:m], b.ev[:m], b.ew[:m]
	arcs := int32(len(p.to) + 2*m)
	off, to := make([]int32, n+1), make([]int32, arcs)
	c := &CSR{off: off, to: to, m: p.m + m}
	wc := newWeightClasser()
	// The prefix's weights are its class table, or every arc's weight when
	// it kept the float64 fallback; pid maps its classes to insertion ids.
	pid := make([]uint16, len(p.classes))
	for k, w := range p.classes {
		pid[k] = wc.add(w)
	}
	for _, w := range p.w64 {
		wc.add(w)
	}
	for u := 0; u < p.N(); u++ {
		off[u] = int32(p.Degree(u))
	}
	id := make([]uint16, m)
	for i, u := range eu {
		off[u]++
		off[ev[i]]++
		id[i] = wc.add(ew[i])
	}
	// off[u] counts u's arcs; the running sum turns it into the end of u's
	// range. The scatter walks the edges backwards and decrements off[u]
	// per arc, so it fills the tail of each range back to front in edge
	// order and leaves off[u] where u's prefix arcs end.
	for u := 1; u < n; u++ {
		off[u] += off[u-1]
	}
	off[n] = arcs
	class := c.allocWeights(wc)
	for i := m - 1; i >= 0; i-- {
		u, v, w := eu[i], ev[i], ew[i]
		off[u]--
		off[v]--
		a, z := off[u], off[v]
		to[a], to[z] = v, u
		if c.w64 != nil {
			c.w64[a], c.w64[z] = w, w
		} else {
			k := class[id[i]]
			c.wcls[a], c.wcls[z] = k, k
		}
	}
	for u := 0; u < p.N(); u++ {
		pto, base := p.NeighborRange(u)
		off[u] -= int32(len(pto))
		a := int(off[u])
		copy(to[a:], pto)
		for j := range pto {
			if c.w64 != nil {
				c.w64[a+j] = p.ArcWeight(base + j)
			} else {
				c.wcls[a+j] = class[pid[p.wcls[base+j]]]
			}
		}
	}
	b.prefix, b.eu, b.ev, b.ew = c, nil, nil, nil
	return c
}
