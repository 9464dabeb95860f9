// Package graph provides the weighted undirected graph substrate used by the
// routing schemes: the edge-by-edge *Graph builder and the classic
// generators, the immutable CSR topology they freeze into (FromGraph,
// GenerateCSR), the algorithms that read a Topology (Dijkstra, bounded-hop
// Bellman-Ford, BFS, diameter measures, spanning trees), and rooted-tree
// utilities (heavy-child decomposition, DFS intervals).
//
// All algorithms are deterministic given the caller-supplied *rand.Rand.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Infinity is the distance value used for unreachable vertices.
const Infinity = math.MaxFloat64

// NoVertex marks an absent vertex id (e.g. the parent of a root).
const NoVertex = -1

// Edge is a weighted undirected edge between vertices U and V.
type Edge struct {
	U, V   int
	Weight float64
}

// neighbor is one endpoint of an incident edge, as seen from its other
// endpoint.
type neighbor struct {
	To     int
	Weight float64
}

// Graph is the edge-by-edge builder of a weighted undirected graph on
// vertices 0..N()-1, stored as adjacency lists. Algorithms do not read it:
// freeze it with FromGraph and hand them the CSR. The zero value is an
// empty graph; use New to preallocate vertices.
type Graph struct {
	adj   [][]neighbor
	edges int
}

// New returns a graph with n isolated vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{adj: make([][]neighbor, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.edges }

// AddVertex appends a new isolated vertex and returns its id.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddEdge inserts an undirected edge {u,v} with weight w. It returns an error
// for out-of-range endpoints, self loops, or non-positive/non-finite weights.
// Parallel edges are not deduplicated; callers that care should use HasEdge.
func (g *Graph) AddEdge(u, v int, w float64) error {
	switch {
	case u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj):
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, len(g.adj))
	case u == v:
		return fmt.Errorf("graph: self loop at %d", u)
	case !(w > 0) || math.IsInf(w, 0) || math.IsNaN(w):
		return fmt.Errorf("graph: invalid weight %v on {%d,%d}", w, u, v)
	}
	g.adj[u] = append(g.adj[u], neighbor{To: v, Weight: w})
	g.adj[v] = append(g.adj[v], neighbor{To: u, Weight: w})
	g.edges++
	return nil
}

// MustAddEdge is AddEdge that panics on error; for generators and tests whose
// inputs are correct by construction.
func (g *Graph) MustAddEdge(u, v int, w float64) {
	if err := g.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

// HasEdge reports whether an edge {u,v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	for _, nb := range g.adj[u] {
		if nb.To == v {
			return true
		}
	}
	return false
}

// Degree returns the number of edges incident on u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Edges returns every undirected edge once, with U < V, sorted by (U, V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for u, nbs := range g.adj {
		for _, nb := range nbs {
			if u < nb.To {
				out = append(out, Edge{U: u, V: nb.To, Weight: nb.Weight})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]neighbor, len(g.adj)), edges: g.edges}
	for i, nbs := range g.adj {
		c.adj[i] = append([]neighbor(nil), nbs...)
	}
	return c
}

// ErrDisconnected is returned by algorithms that require a connected graph.
var ErrDisconnected = errors.New("graph: not connected")

// Validate performs internal consistency checks (symmetric adjacency,
// positive finite weights) and returns the first violation found.
func (g *Graph) Validate() error {
	type key struct{ u, v int }
	count := make(map[key]int)
	for u, nbs := range g.adj {
		for _, nb := range nbs {
			if nb.To < 0 || nb.To >= len(g.adj) {
				return fmt.Errorf("graph: vertex %d has neighbor %d out of range", u, nb.To)
			}
			if nb.To == u {
				return fmt.Errorf("graph: self loop at %d", u)
			}
			if !(nb.Weight > 0) || math.IsInf(nb.Weight, 0) || math.IsNaN(nb.Weight) {
				return fmt.Errorf("graph: invalid weight %v on {%d,%d}", nb.Weight, u, nb.To)
			}
			count[key{u, nb.To}]++
		}
	}
	for k, c := range count {
		if count[key{k.v, k.u}] != c {
			return fmt.Errorf("graph: asymmetric adjacency between %d and %d", k.u, k.v)
		}
	}
	total := 0
	for _, nbs := range g.adj {
		total += len(nbs)
	}
	if total != 2*g.edges {
		return fmt.Errorf("graph: edge count %d inconsistent with adjacency size %d", g.edges, total)
	}
	return nil
}
