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
