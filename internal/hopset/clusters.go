package hopset

import (
	"fmt"
	"slices"

	"lowmemroute/internal/graph"
)

// ClusterTrees extracts one cluster tree per root from per-vertex records:
// recs[v] holds the records kept at host vertex v, and member(v, r) names
// the root whose tree record r belongs to, the neighbour v hangs from there
// (ignored at the root itself), and whether v is a member at all. A record
// of a root outside roots is skipped; roots must be strictly ascending,
// since each record finds its root by binary search. It runs two passes over
// the vertices (count, then fill); because vertices are scanned ascending,
// each root's member bucket arrives strictly sorted and feeds NewTreeCompact
// directly, so no host-sized array is allocated per root and all buckets
// share two allocations. It charges no meter: callers charge what they
// retain.
func ClusterTrees[R any](roots []int, recs [][]R, member func(v int, r *R) (root, parent int, ok bool)) ([]*graph.Tree, error) {
	for i := 1; i < len(roots); i++ {
		if roots[i] <= roots[i-1] {
			return nil, fmt.Errorf("hopset: cluster roots not strictly ascending: %d after %d", roots[i], roots[i-1])
		}
	}
	// slot returns the tree index record r of vertex v joins, or -1.
	slot := func(v int, r *R) (i, parent int) {
		root, parent, ok := member(v, r)
		if !ok {
			return -1, 0
		}
		i, found := slices.BinarySearch(roots, root)
		if !found {
			return -1, 0
		}
		if v == root {
			parent = graph.NoVertex
		}
		return i, parent
	}
	n := len(recs)
	size := make([]int, len(roots))
	total := 0
	for v := 0; v < n; v++ {
		for j := range recs[v] {
			if i, _ := slot(v, &recs[v][j]); i >= 0 {
				size[i]++
				total++
			}
		}
	}
	vertSlab, parSlab := make([]int32, total), make([]int32, total)
	verts := make([][]int32, len(roots))
	pars := make([][]int32, len(roots))
	for i, k := range size {
		verts[i], vertSlab = vertSlab[:0:k], vertSlab[k:]
		pars[i], parSlab = parSlab[:0:k], parSlab[k:]
	}
	for v := 0; v < n; v++ {
		for j := range recs[v] {
			if i, p := slot(v, &recs[v][j]); i >= 0 {
				verts[i] = append(verts[i], int32(v))
				pars[i] = append(pars[i], int32(p))
			}
		}
	}
	trees := make([]*graph.Tree, len(roots))
	for i, root := range roots {
		t, err := graph.NewTreeCompact(root, n, verts[i], pars[i])
		if err != nil {
			return nil, fmt.Errorf("hopset: cluster of %d: %w", root, err)
		}
		trees[i] = t
	}
	return trees, nil
}

// ClusterTrees extracts the exact cluster tree of every source root from a
// limited exploration's entries: the members of root's tree are root itself
// and every vertex v whose estimate beats bound[v], each hung from the
// neighbour that delivered its estimate. Source roots must be strictly
// ascending.
func (r *ExploreResult) ClusterTrees(srcs []Source, bound []float64) ([]*graph.Tree, error) {
	roots := make([]int, len(srcs))
	for i, s := range srcs {
		roots[i] = s.Root
	}
	return ClusterTrees(roots, r.entries, func(v int, en *RootEntry) (int, int, bool) {
		return en.Root, en.Parent, v == en.Root || en.Dist < bound[v]
	})
}
