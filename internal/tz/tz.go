// Package tz implements the centralized Thorup-Zwick compact routing scheme
// [TZ01b] for general weighted graphs: the sampling hierarchy
// A_0 ⊇ A_1 ⊇ … ⊇ A_k = ∅, pivots, clusters grown by pruned Dijkstra, and
// routing through exact tree-routing schemes built on the cluster trees.
//
// It is the "TZ01b" reference row of the paper's Table 1 (stretch 4k-3 in
// the variant described in the paper's Appendix B; tables Õ(n^{1/k}), labels
// O(k log n)) and the correctness oracle for the distributed scheme in
// internal/core.
package tz

import (
	"fmt"
	"math"
	"math/rand"

	"lowmemroute/internal/clusterroute"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/treeroute"
)

// Options configures Build.
type Options struct {
	// K is the hierarchy depth (stretch 4k-3). Must be >= 1.
	K int
	// Seed drives the hierarchy sampling.
	Seed int64
}

// Scheme is a complete compact routing scheme for a general graph. It
// embeds the shared cluster-forest routing machinery of
// internal/clusterroute.
type Scheme struct {
	*clusterroute.Scheme
	Levels [][]int // Levels[i] = A_i
}

// Build constructs the scheme centrally over the topology t.
func Build(t graph.Topology, opts Options) (*Scheme, error) {
	n := t.N()
	k := opts.K
	if k < 1 {
		return nil, fmt.Errorf("tz: k=%d < 1", k)
	}
	if n == 0 {
		return &Scheme{Scheme: clusterroute.New(k, 0)}, nil
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// Hierarchy: A_0 = V; A_i sampled from A_{i-1} with prob n^{-1/k};
	// A_k = ∅. Resample A_{k-1} if it comes out empty (the scheme needs a
	// top level).
	p := math.Pow(float64(n), -1/float64(k))
	levels := make([][]int, k)
	levels[0] = make([]int, n)
	for v := 0; v < n; v++ {
		levels[0][v] = v
	}
	for i := 1; i < k; i++ {
		for _, v := range levels[i-1] {
			if rng.Float64() < p {
				levels[i] = append(levels[i], v)
			}
		}
	}
	// The scheme needs a nonempty top level; reseed it from the deepest
	// nonempty level (A_0 is always nonempty) and restore nesting by
	// filling any emptied intermediate levels from above.
	if k > 1 && len(levels[k-1]) == 0 {
		j := k - 2
		for len(levels[j]) == 0 {
			j--
		}
		levels[k-1] = []int{levels[j][rng.Intn(len(levels[j]))]}
	}
	for i := k - 2; i >= 1; i-- {
		if len(levels[i]) == 0 {
			levels[i] = append([]int(nil), levels[i+1]...)
		}
	}
	levelOf := make([]int, n)
	for i := 0; i < k; i++ {
		for _, v := range levels[i] {
			levelOf[v] = i
		}
	}

	// Pivot distances d(v, A_i) and pivots p_i(v) per level.
	pivotDist := make([][]float64, k+1)
	pivot := make([][]int, k)
	for i := 0; i < k; i++ {
		res := graph.BoundedBellmanFordMulti(t, levels[i], nil, n)
		pivotDist[i] = res.Dist
		piv := make([]int, n)
		for v := 0; v < n; v++ {
			piv[v] = nearestSeed(res, v)
		}
		pivot[i] = piv
	}
	// d(v, A_k) = ∞.
	pivotDist[k] = make([]float64, n)
	for v := range pivotDist[k] {
		pivotDist[k][v] = graph.Infinity
	}

	s := &Scheme{Scheme: clusterroute.New(k, n), Levels: levels}
	for i := 0; i < k; i++ {
		for _, w := range levels[i] {
			if levelOf[w] != i {
				continue // clusters are built once, at the top level
			}
			dist, parent := prunedDijkstra(t, w, pivotDist[i+1])
			tree, err := clusterTree(w, dist, parent, n)
			if err != nil {
				return nil, fmt.Errorf("tz: cluster of %d: %w", w, err)
			}
			s.AddTree(treeroute.BuildCentralized(tree), t)
		}
	}

	// Labels: one entry per level; the tree label is attached when the
	// vertex lies in its pivot's cluster.
	for v := 0; v < n; v++ {
		for i := 0; i < k; i++ {
			root := pivot[i][v]
			if root == graph.NoVertex {
				continue
			}
			s.AddLabelEntry(v, i, root)
		}
	}
	return s, nil
}

// nearestSeed extracts which seed a multi-source BF entry descends from by
// walking parents.
func nearestSeed(res *graph.SSSPResult, v int) int {
	if res.Dist[v] == graph.Infinity {
		return graph.NoVertex
	}
	x := v
	for res.Parent[x] != graph.NoVertex {
		x = res.Parent[x]
	}
	return x
}

// prunedDijkstra grows the Thorup-Zwick cluster of w: vertex v is expanded
// only while d(w,v) < bound(v) (the next-level pivot distance at v).
func prunedDijkstra(t graph.Topology, w int, bound []float64) (dist []float64, parent []int) {
	n := t.N()
	dist = make([]float64, n)
	parent = make([]int, n)
	for i := range dist {
		dist[i] = graph.Infinity
		parent[i] = graph.NoVertex
	}
	dist[w] = 0
	h := newHeap(n)
	h.push(w, 0)
	done := make([]bool, n)
	for h.len() > 0 {
		u, du := h.pop()
		if done[u] {
			continue
		}
		done[u] = true
		if du >= bound[u] {
			// u is outside the cluster: it keeps no entry and does not
			// expand further.
			dist[u] = graph.Infinity
			parent[u] = graph.NoVertex
			continue
		}
		to, base := t.NeighborRange(u)
		for i, x := range to {
			v := int(x)
			if alt := du + t.ArcWeight(base+i); alt < dist[v] && !done[v] {
				dist[v] = alt
				parent[v] = u
				h.pushOrDecrease(v, alt)
			}
		}
	}
	// Entries above the bound are not part of the cluster.
	for v := 0; v < n; v++ {
		if dist[v] != graph.Infinity && dist[v] >= bound[v] {
			dist[v] = graph.Infinity
			parent[v] = graph.NoVertex
		}
	}
	return dist, parent
}

func clusterTree(w int, dist []float64, parent []int, n int) (*graph.Tree, error) {
	par := make([]int, n)
	for v := 0; v < n; v++ {
		par[v] = graph.NoVertex
		if v != w && dist[v] != graph.Infinity {
			par[v] = parent[v]
		}
	}
	return graph.NewTree(w, par)
}

// heap is a tiny local copy of the graph package's vertex heap (unexported
// there).
type heap struct {
	items []heapItem
	pos   []int
}

type heapItem struct {
	v    int
	prio float64
}

func newHeap(n int) *heap {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	return &heap{pos: pos}
}

func (h *heap) len() int { return len(h.items) }

func (h *heap) push(v int, prio float64) {
	h.items = append(h.items, heapItem{v, prio})
	h.pos[v] = len(h.items) - 1
	h.up(len(h.items) - 1)
}

func (h *heap) pushOrDecrease(v int, prio float64) {
	i := h.pos[v]
	if i == -1 {
		h.push(v, prio)
		return
	}
	if prio >= h.items[i].prio {
		return
	}
	h.items[i].prio = prio
	h.up(i)
}

func (h *heap) pop() (int, float64) {
	top := h.items[0]
	last := len(h.items) - 1
	h.swap(0, last)
	h.items = h.items[:last]
	h.pos[top.v] = -1
	if last > 0 {
		h.down(0)
	}
	return top.v, top.prio
}

func (h *heap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].v] = i
	h.pos[h.items[j].v] = j
}

func (h *heap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].prio <= h.items[i].prio {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *heap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.items[l].prio < h.items[small].prio {
			small = l
		}
		if r < len(h.items) && h.items[r].prio < h.items[small].prio {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}
