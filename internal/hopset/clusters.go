package hopset

import (
	"fmt"

	"lowmemroute/internal/graph"
)

// ClusterTrees extracts the exact cluster tree of every source root from a
// limited exploration's entries: the members of root's tree are root itself
// and every vertex v whose estimate beats bound[v], each hung from the
// neighbour that delivered its estimate. It runs two passes over the
// vertices (count, then fill); because vertices are scanned ascending, each
// root's member bucket arrives strictly sorted and feeds NewTreeCompact
// directly, so no host-sized array is allocated per root and all buckets
// share two allocations. It charges no meter: callers charge what they
// retain.
func (r *ExploreResult) ClusterTrees(srcs []Source, bound []float64) ([]*graph.Tree, error) {
	n := len(r.entries)
	slot := make(map[int]int, len(srcs))
	for i, s := range srcs {
		slot[s.Root] = i
	}
	member := func(v int, en *RootEntry) (int, bool) {
		if v != en.Root && en.Dist >= bound[v] {
			return 0, false
		}
		i, ok := slot[en.Root]
		return i, ok
	}
	size := make([]int, len(srcs))
	total := 0
	for v := 0; v < n; v++ {
		for j := range r.entries[v] {
			if i, ok := member(v, &r.entries[v][j]); ok {
				size[i]++
				total++
			}
		}
	}
	vertSlab, parSlab := make([]int32, total), make([]int32, total)
	verts := make([][]int32, len(srcs))
	pars := make([][]int32, len(srcs))
	for i, k := range size {
		verts[i], vertSlab = vertSlab[:0:k], vertSlab[k:]
		pars[i], parSlab = parSlab[:0:k], parSlab[k:]
	}
	for v := 0; v < n; v++ {
		for j := range r.entries[v] {
			en := &r.entries[v][j]
			i, ok := member(v, en)
			if !ok {
				continue
			}
			p := graph.NoVertex
			if v != en.Root {
				p = en.Parent
			}
			verts[i] = append(verts[i], int32(v))
			pars[i] = append(pars[i], int32(p))
		}
	}
	trees := make([]*graph.Tree, len(srcs))
	for i, s := range srcs {
		t, err := graph.NewTreeCompact(s.Root, n, verts[i], pars[i])
		if err != nil {
			return nil, fmt.Errorf("hopset: cluster of %d: %w", s.Root, err)
		}
		trees[i] = t
	}
	return trees, nil
}
