// Package hopset implements the machinery of Theorem 1 and Lemma 2 of
// Elkin-Neiman (PODC 2018): virtual graphs whose edges are B-bounded
// distances in the host graph and are explored on the fly (never
// materialised), (β,ε)-hopsets for such virtual graphs with bounded
// arboricity and a path-recovery mechanism, and the limited
// hopset-accelerated Bellman-Ford in G' ∪ H (LimitedBF) with low
// per-vertex memory.
//
// The hopset construction itself substitutes the companion-paper [EN17a/b]
// construction with a Thorup-Zwick-style sampling hierarchy (pivots and
// bunches computed by bounded-hop explorations), which is the family of
// constructions [EN16a] builds upon: it yields a valid (β,ε)-hopset whose
// per-virtual-vertex out-degree (the arboricity witness) is Õ(m^{1/κ}) whp,
// every hopset edge stores its underlying host path (path recovery), and the
// realised hop bound β is measured rather than taken from the paper's
// closed-form constant. See DESIGN.md for the substitution rationale.
package hopset

import (
	"fmt"
	"sort"

	"lowmemroute/internal/graph"
)

// VirtualGraph is a graph G' = (V', E') embedded in a host graph G: V' is a
// subset of G's vertices and E' corresponds to B-bounded distances in G.
// E' is never materialised by the distributed machinery; it explores E'
// through B-bounded Bellman-Ford searches in G.
type VirtualGraph struct {
	host     graph.Topology
	members  []int
	isMember []bool
	b        int
}

// NewVirtualGraph creates the virtual graph over the given members of host
// with hop bound b. Members must be valid host vertices; duplicates are
// removed.
func NewVirtualGraph(host graph.Topology, members []int, b int) (*VirtualGraph, error) {
	if b < 1 {
		return nil, fmt.Errorf("hopset: hop bound %d < 1", b)
	}
	hostN := host.N()
	vg := &VirtualGraph{
		host:     host,
		isMember: make([]bool, hostN),
		b:        b,
	}
	for _, v := range members {
		if v < 0 || v >= hostN {
			return nil, fmt.Errorf("hopset: member %d out of range [0,%d)", v, hostN)
		}
		if !vg.isMember[v] {
			vg.isMember[v] = true
			vg.members = append(vg.members, v)
		}
	}
	sort.Ints(vg.members)
	return vg, nil
}

// Host returns the host topology.
func (vg *VirtualGraph) Host() graph.Topology { return vg.host }

// Members returns the virtual vertices in increasing order (owned by the
// virtual graph).
func (vg *VirtualGraph) Members() []int { return vg.members }

// M returns the number of virtual vertices.
func (vg *VirtualGraph) M() int { return len(vg.members) }

// IsMember reports whether host vertex v is a virtual vertex.
func (vg *VirtualGraph) IsMember(v int) bool {
	return v >= 0 && v < len(vg.isMember) && vg.isMember[v]
}

// B returns the hop bound defining E'.
func (vg *VirtualGraph) B() int { return vg.b }

// Materialize builds G' explicitly, indexed by virtual index (the position
// of each member in Members()). This defeats the whole point of the paper -
// it exists only so tests and the evaluation harness have a ground truth to
// compare against, and so the EN16b-style baseline can exhibit its memory
// blowup. Returns the explicit graph and the host-id-to-virtual-index map
// (-1 for non-members); a bounded distance that is no valid edge weight (a
// sum that overflowed to +Inf) is an error.
func (vg *VirtualGraph) Materialize() (*graph.CSR, []int, error) {
	toVirt := make([]int, vg.host.N())
	for i := range toVirt {
		toVirt[i] = -1
	}
	for i, v := range vg.members {
		toVirt[v] = i
	}
	gp := graph.NewCSRBuilder(len(vg.members))
	for i, u := range vg.members {
		bb := graph.BoundedBellmanFord(vg.host, u, vg.b)
		for j := i + 1; j < len(vg.members); j++ {
			if d := bb.Dist[vg.members[j]]; d != graph.Infinity {
				if err := gp.AddEdge(i, j, d); err != nil {
					return nil, nil, fmt.Errorf("hopset: materialize: %w", err)
				}
			}
		}
	}
	return gp.Build(), toVirt, nil
}

// ExactDistances computes reference d_{G'} distances from each source to all
// virtual vertices (centralized; tests and evaluation only). Each returned
// slice is indexed by host id; non-members hold Infinity.
func (vg *VirtualGraph) ExactDistances(sources []int) (map[int][]float64, error) {
	gp, toVirt, err := vg.Materialize()
	if err != nil {
		return nil, err
	}
	out := make(map[int][]float64, len(sources))
	for _, s := range sources {
		res := graph.Dijkstra(gp, toVirt[s])
		dist := make([]float64, vg.host.N())
		for i := range dist {
			dist[i] = graph.Infinity
		}
		for j, v := range vg.members {
			dist[v] = res.Dist[j]
		}
		out[s] = dist
	}
	return out, nil
}
