package graph

// BFSResult holds hop counts and a BFS tree from a source in the underlying
// unweighted graph.
type BFSResult struct {
	Source int
	Hops   []int // -1 for unreachable
	Parent []int // NoVertex for source/unreachable
}

// BFS explores the underlying unweighted graph of t from src.
func BFS(t Topology, src int) *BFSResult {
	n := t.N()
	res := &BFSResult{Source: src, Hops: make([]int, n), Parent: make([]int, n)}
	for i := range res.Hops {
		res.Hops[i] = -1
		res.Parent[i] = NoVertex
	}
	res.Hops[src] = 0
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		to, _ := t.NeighborRange(u)
		for _, x := range to {
			if v := int(x); res.Hops[v] == -1 {
				res.Hops[v] = res.Hops[u] + 1
				res.Parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return res
}

// Eccentricity returns the maximum finite hop distance in the BFS result and
// whether every vertex was reached.
func (r *BFSResult) Eccentricity() (int, bool) {
	ecc, all := 0, true
	for _, h := range r.Hops {
		if h == -1 {
			all = false
			continue
		}
		if h > ecc {
			ecc = h
		}
	}
	return ecc, all
}

// Connected reports whether t is connected (true for empty and
// single-vertex topologies).
func Connected(t Topology) bool {
	_, err := HopRadiusUpperBound(t)
	return err == nil
}

// HopDiameter computes D, the diameter of the underlying unweighted graph,
// by running BFS from every vertex. Returns ErrDisconnected for disconnected
// graphs.
func HopDiameter(t Topology) (int, error) {
	d := 0
	for s := 0; s < t.N(); s++ {
		ecc, all := BFS(t, s).Eccentricity()
		if !all {
			return 0, ErrDisconnected
		}
		if ecc > d {
			d = ecc
		}
	}
	return d, nil
}

// HopRadiusUpperBound returns 2·ecc(0), a cheap upper bound on the hop
// diameter usable by algorithms that only need "some" D; the simulator
// computes it at every boot, so the BFS keeps int32 state for million-
// vertex topologies. Returns ErrDisconnected for disconnected topologies.
func HopRadiusUpperBound(t Topology) (int, error) {
	n := t.N()
	if n == 0 {
		return 0, nil
	}
	hops := make([]int32, n)
	for i := range hops {
		hops[i] = -1
	}
	hops[0] = 0
	queue := make([]int32, 1, n)
	queue[0] = 0
	ecc := int32(0)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		to, _ := t.NeighborRange(int(u))
		for _, v := range to {
			if hops[v] == -1 {
				hops[v] = hops[u] + 1
				if hops[v] > ecc {
					ecc = hops[v]
				}
				queue = append(queue, v)
			}
		}
	}
	if len(queue) != n {
		return 0, ErrDisconnected
	}
	return 2 * int(ecc), nil
}

// ShortestPathDiameter computes S, the maximum over all pairs (u,v) of the
// minimum hop count among shortest (by weight) u-v paths. This is the
// quantity the running time of [LP15]'s scheme depends on. Quadratic work;
// intended for evaluation.
func ShortestPathDiameter(t Topology) (int, error) {
	n := t.N()
	s := 0
	for src := 0; src < n; src++ {
		hops := minHopShortestPaths(t, src)
		for v, h := range hops {
			if h == -1 {
				if v != src {
					return 0, ErrDisconnected
				}
				continue
			}
			if h > s {
				s = h
			}
		}
	}
	return s, nil
}

// minHopShortestPaths returns, for each v, the minimum number of hops over
// all minimum-weight src-v paths (lexicographic Dijkstra on (dist, hops)).
func minHopShortestPaths(t Topology, src int) []int {
	n := t.N()
	dist := make([]float64, n)
	hops := make([]int, n)
	for i := range dist {
		dist[i] = Infinity
		hops[i] = -1
	}
	dist[src] = 0
	hops[src] = 0
	// Priority = dist + tiny·hops would be fragile; run Dijkstra on dist and
	// settle hop ties by explicit comparison during relaxation.
	h := newVertexHeap(n)
	h.Push(src, 0)
	done := make([]bool, n)
	for h.Len() > 0 {
		u, _ := h.Pop()
		if done[u] {
			continue
		}
		done[u] = true
		to, base := t.NeighborRange(u)
		for i, x := range to {
			v := int(x)
			alt := dist[u] + t.ArcWeight(base+i)
			altHops := hops[u] + 1
			if alt < dist[v] || (alt == dist[v] && altHops < hops[v]) {
				if alt < dist[v] {
					h.PushOrDecrease(v, alt)
				}
				dist[v] = alt
				hops[v] = altHops
			}
		}
	}
	// One more relaxation sweep pass to settle equal-distance hop
	// improvements missed by settled order (weights are positive so a few
	// Bellman-Ford style sweeps converge; hop counts only decrease).
	for changed := true; changed; {
		changed = false
		for u := 0; u < n; u++ {
			if dist[u] == Infinity {
				continue
			}
			to, base := t.NeighborRange(u)
			for i, x := range to {
				if v := int(x); dist[u]+t.ArcWeight(base+i) == dist[v] && hops[u]+1 < hops[v] {
					hops[v] = hops[u] + 1
					changed = true
				}
			}
		}
	}
	return hops
}
