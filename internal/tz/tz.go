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
	levels, topOf := clusterroute.SampleHierarchy(n, k, rand.New(rand.NewSource(opts.Seed)))

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
			if topOf[w] != i {
				continue // clusters are built once, at the top level
			}
			tree, err := graph.NewTree(w, graph.PrunedDijkstra(t, w, pivotDist[i+1]).Parent)
			if err != nil {
				return nil, fmt.Errorf("tz: cluster of %d: %w", w, err)
			}
			s.AddTree(treeroute.BuildCentralized(tree), t)
		}
	}
	s.AddLabels(pivot)
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
