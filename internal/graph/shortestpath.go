package graph

// SSSPResult holds single-source shortest path distances and a shortest-path
// tree encoded as parent pointers (Parent[source] == NoVertex; unreachable
// vertices have Dist == Infinity and Parent == NoVertex).
type SSSPResult struct {
	Source int
	Dist   []float64
	Parent []int
	// Hops[v] is the number of edges on the computed path from Source to v
	// (0 for the source, -1 if unreachable).
	Hops []int
}

// Dijkstra computes exact single-source shortest paths from src in t.
func Dijkstra(t Topology, src int) *SSSPResult { return PrunedDijkstra(t, src, nil) }

// PrunedDijkstra computes shortest paths from src in t, pruned at bound: a
// vertex v settled at distance d(src, v) >= bound[v] keeps no entry
// (Infinity, NoVertex, -1 hops) and is not expanded. With bound the next
// level's pivot distances this grows a Thorup-Zwick cluster, and the
// surviving parent pointers are its cluster tree. A nil bound prunes
// nothing.
func PrunedDijkstra(t Topology, src int, bound []float64) *SSSPResult {
	n := t.N()
	res := &SSSPResult{
		Source: src,
		Dist:   make([]float64, n),
		Parent: make([]int, n),
		Hops:   make([]int, n),
	}
	for i := range res.Dist {
		res.Dist[i] = Infinity
		res.Parent[i] = NoVertex
		res.Hops[i] = -1
	}
	res.Dist[src] = 0
	res.Hops[src] = 0
	h := newVertexHeap(n)
	h.Push(src, 0)
	done := make([]bool, n)
	for h.Len() > 0 {
		u, du := h.Pop()
		if done[u] {
			continue
		}
		done[u] = true
		if bound != nil && du >= bound[u] {
			res.Dist[u], res.Parent[u], res.Hops[u] = Infinity, NoVertex, -1
			continue
		}
		to, base := t.NeighborRange(u)
		for i, x := range to {
			v := int(x)
			if alt := du + t.ArcWeight(base+i); alt < res.Dist[v] && !done[v] {
				res.Dist[v] = alt
				res.Parent[v] = u
				res.Hops[v] = res.Hops[u] + 1
				h.PushOrDecrease(v, alt)
			}
		}
	}
	return res
}

// PathTo reconstructs the computed path from the source to v as a vertex
// sequence. Returns nil if v is unreachable.
func (r *SSSPResult) PathTo(v int) []int {
	if r.Dist[v] == Infinity {
		return nil
	}
	var rev []int
	for x := v; x != NoVertex; x = r.Parent[x] {
		rev = append(rev, x)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// BoundedBellmanFord computes h-bounded distances d^(h)(src, ·) in t: the
// length of the shortest path using at most h edges. It runs h synchronous
// relaxation rounds; unreachable-within-h vertices get Infinity.
func BoundedBellmanFord(t Topology, src, h int) *SSSPResult {
	return BoundedBellmanFordMulti(t, []int{src}, nil, h)
}

// BoundedBellmanFordMulti runs h rounds of synchronous Bellman-Ford in t
// from a set of sources. inits, when non-nil, gives each source an initial distance
// offset (same length as sources); otherwise sources start at 0. The Source
// field of the result is NoVertex when len(sources) != 1.
func BoundedBellmanFordMulti(t Topology, sources []int, inits []float64, h int) *SSSPResult {
	n := t.N()
	res := &SSSPResult{
		Source: NoVertex,
		Dist:   make([]float64, n),
		Parent: make([]int, n),
		Hops:   make([]int, n),
	}
	if len(sources) == 1 {
		res.Source = sources[0]
	}
	for i := range res.Dist {
		res.Dist[i] = Infinity
		res.Parent[i] = NoVertex
		res.Hops[i] = -1
	}
	frontier := make([]int, 0, len(sources))
	for i, s := range sources {
		d := 0.0
		if inits != nil {
			d = inits[i]
		}
		if d < res.Dist[s] {
			res.Dist[s] = d
			res.Hops[s] = 0
			frontier = append(frontier, s)
		}
	}
	inFrontier := make([]bool, n)
	for _, s := range frontier {
		inFrontier[s] = true
	}
	for round := 0; round < h && len(frontier) > 0; round++ {
		var next []int
		inNext := make([]bool, n)
		for _, u := range frontier {
			inFrontier[u] = false
			du := res.Dist[u]
			to, base := t.NeighborRange(u)
			for i, x := range to {
				v := int(x)
				alt := du + t.ArcWeight(base+i)
				if alt < res.Dist[v] {
					res.Dist[v] = alt
					res.Parent[v] = u
					res.Hops[v] = res.Hops[u] + 1
					if !inNext[v] {
						inNext[v] = true
						next = append(next, v)
					}
				}
			}
		}
		frontier = next
	}
	return res
}

// AllPairs computes exact all-pairs shortest path distances with n Dijkstra
// runs. Intended for evaluation on moderate n (quadratic memory).
func AllPairs(t Topology) [][]float64 {
	n := t.N()
	out := make([][]float64, n)
	for s := 0; s < n; s++ {
		out[s] = Dijkstra(t, s).Dist
	}
	return out
}
