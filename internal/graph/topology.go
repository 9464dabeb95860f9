package graph

// Topology is the narrow read-only adjacency surface every algorithm reads:
// the simulator and the construction phases (congest, hopset, core,
// treeroute) as well as the centralized oracles (shortest paths, spanning
// trees, the TZ reference, stretch measurement, virtual graphs). Its one
// implementation is the compact immutable *CSR, which a CSRBuilder builds
// from an edge stream.
//
// Directed arcs are numbered globally: vertex u's incident arcs occupy the
// contiguous id range [base, base+Degree(u)) returned by NeighborRange, in
// the graph's adjacency order (the order edges were added — the order every
// handler observes, which the determinism gates pin). ArcWeight(a) returns
// the weight of arc a. The returned neighbor slice is owned by the topology
// and MUST NOT be mutated or retained beyond the caller's own lifetime:
// handler code reads it in place.
type Topology interface {
	// N returns the number of vertices.
	N() int
	// M returns the number of undirected edges.
	M() int
	// Degree returns the number of arcs leaving u.
	Degree(u int) int
	// NeighborRange returns u's neighbor ids in adjacency order and the
	// global id of u's first arc; arc base+i targets to[i]. Read-only.
	NeighborRange(u int) (to []int32, base int)
	// ArcWeight returns the weight of directed arc a.
	ArcWeight(a int) float64
}

// TopoEdgeWeight returns the weight of the lightest edge {u,v} of t and
// whether one exists.
func TopoEdgeWeight(t Topology, u, v int) (float64, bool) {
	if u < 0 || u >= t.N() {
		return 0, false
	}
	to, base := t.NeighborRange(u)
	best, ok := 0.0, false
	for i, x := range to {
		if int(x) == v {
			if w := t.ArcWeight(base + i); !ok || w < best {
				best, ok = w, true
			}
		}
	}
	return best, ok
}

// TopoHasEdge reports whether t has an edge {u,v}.
func TopoHasEdge(t Topology, u, v int) bool {
	if u < 0 || u >= t.N() {
		return false
	}
	to, _ := t.NeighborRange(u)
	for _, x := range to {
		if int(x) == v {
			return true
		}
	}
	return false
}

// AspectRatio returns Λ, the ratio of the largest to the smallest edge
// weight of t, or 1 for an edgeless topology.
func AspectRatio(t Topology) float64 {
	mn, mx := 0.0, 0.0
	for u := 0; u < t.N(); u++ {
		to, base := t.NeighborRange(u)
		for i := range to {
			w := t.ArcWeight(base + i)
			if mn == 0 || w < mn {
				mn = w
			}
			if w > mx {
				mx = w
			}
		}
	}
	if mn <= 0 {
		return 1
	}
	return mx / mn
}
