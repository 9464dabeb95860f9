// Package baseline implements the two families of prior distributed routing
// schemes the paper's Table 1 compares against:
//
//   - BuildLP15: an [LP15]-style scheme whose preprocessing runs global
//     (unbounded-hop) explorations - its structure equals the centralized
//     Thorup-Zwick scheme and its sizes match the [LP15] S-row (tables
//     Õ(n^{1/k}), labels O(k log n)), but its round complexity is driven by
//     the shortest-path diameter S of the graph rather than by √n + D. The
//     explorations are simulated honestly, so the S-dependence shows up in
//     the measured rounds.
//
//   - BuildEN16b: an [EN16b/LPP16]-style scheme that materialises the
//     virtual graph G' at the virtual vertices (the Ω(√n) memory hit) and
//     uses the pre-paper tree routing of treeroute.BuildBaseline on every
//     cluster tree (the O(k log² n) label hit and a second Ω(√n) memory
//     hit at tree-routing portals). Data structures and routing are real;
//     the rounds of the virtual-graph machinery are charged analytically
//     per the EN16b formula (n^{1/2+1/k} + D)·polylog(n)·log Λ, since this
//     scheme is a baseline rather than the paper's contribution.
package baseline

import (
	"fmt"
	"math/rand"

	"lowmemroute/internal/clusterroute"
	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/hopset"
	"lowmemroute/internal/treeroute"
)

// Options configures the baseline builders.
type Options struct {
	// K is the hierarchy depth. Must be >= 1.
	K int
	// Seed drives the hierarchy sampling.
	Seed int64
}

// BuildLP15 constructs the LP15-style scheme on the simulator. All pivot
// and cluster explorations run with an unbounded hop budget, so the
// simulated round count reflects the graph's shortest-path diameter.
func BuildLP15(sim *congest.Simulator, opts Options) (*clusterroute.Scheme, error) {
	n := sim.N()
	k := opts.K
	if k < 1 {
		return nil, fmt.Errorf("baseline: k=%d < 1", k)
	}
	if n == 0 {
		return clusterroute.New(k, 0), nil
	}
	topo := sim.Topo()
	levels, topOf := clusterroute.SampleHierarchy(n, k, rand.New(rand.NewSource(opts.Seed)))
	ex := hopset.NewExplorer(sim) // one workspace for all 2k-1 explorations

	// Pivot distances per level, by global set-source explorations
	// (depth ~ S each - the LP15 signature).
	pivotD := make([][]float64, k+1)
	pivotRoot := make([][]int, k)
	d0 := make([]float64, n)
	r0 := make([]int, n)
	for v := 0; v < n; v++ {
		r0[v] = v
	}
	pivotD[0], pivotRoot[0] = d0, r0
	for j := 1; j < k; j++ {
		dist, _, origin, err := ex.DistToSet(levels[j], n)
		if err != nil {
			return nil, fmt.Errorf("baseline: LP15 pivots level %d: %w", j, err)
		}
		pivotD[j] = dist
		pivotRoot[j] = origin
	}
	dk := make([]float64, n)
	for v := range dk {
		dk[v] = graph.Infinity
	}
	pivotD[k] = dk

	s := clusterroute.New(k, n)
	maxHeight := 0
	for i := 0; i < k; i++ {
		bound := pivotD[i+1]
		var srcs []hopset.Source
		for _, w := range levels[i] {
			if topOf[w] == i {
				srcs = append(srcs, hopset.Source{Root: w, At: w, Dist: 0})
			}
		}
		if len(srcs) == 0 {
			continue
		}
		limit := func(v, root int, d float64) bool { return d < bound[v] }
		res, err := ex.Explore(srcs, hopset.ExploreOptions{Hops: n, Limit: limit})
		if err != nil {
			return nil, fmt.Errorf("baseline: LP15 level %d clusters: %w", i, err)
		}
		trees, err := res.ClusterTrees(srcs, bound)
		if err != nil {
			return nil, fmt.Errorf("baseline: LP15 level %d clusters: %w", i, err)
		}
		for _, tree := range trees {
			if h := tree.Height(); h > maxHeight {
				maxHeight = h
			}
			ts := treeroute.BuildCentralized(tree)
			s.AddTree(ts, topo)
			for i, tab := range ts.Tables {
				sim.Mem(tree.MemberAt(i)).Charge(int64(1 + tab.Words()))
			}
		}
	}
	// LP15's tree-routing phase: parallel over clusters, bounded by tree
	// heights plus the per-vertex cluster congestion.
	sim.AddRounds(int64(maxHeight + s.MaxClustersPerVertex() + sim.Diameter()))

	s.AddLabels(pivotRoot)
	for v := 0; v < n; v++ {
		sim.Mem(v).Charge(int64(s.Labels[v].Words()))
	}
	return s, nil
}
