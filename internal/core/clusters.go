package core

import (
	"fmt"
	"math"

	"lowmemroute/internal/clusterroute"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/hopset"
	"lowmemroute/internal/treeroute"
)

// approxClusters grows the approximate clusters C̃(v) of every high-level
// center by multi-root limited Bellman-Ford in G' ∪ H (the paper's
// Approximate Clusters paragraph): per-iteration B-bounded explorations in
// G cover the implicit E', a broadcast pass covers H (out-edges are shared
// across all clusters, as the paper notes), limits follow the
// (1+ε)/(1+ε)^2 rules, used hopset edges trigger path-recovery joins, and a
// final limited exploration completes the clusters in G.
func (b *builder) approxClusters() error {
	for i := b.kHalf; i < b.k; i++ {
		var roots []int
		for _, v := range b.levels[i] {
			if b.topOf[v] == i {
				roots = append(roots, v)
			}
		}
		if len(roots) == 0 {
			continue
		}
		if err := b.growApproxClusters(i, roots); err != nil {
			return fmt.Errorf("core: level %d approximate clusters: %w", i, err)
		}
	}
	return nil
}

func (b *builder) growApproxClusters(level int, roots []int) error {
	if err := b.growClusters(level, roots); err != nil {
		return err
	}
	trees, err := hopset.ClusterTrees(roots, b.bf.Estimates(), b.memberFn)
	if err != nil {
		return err
	}
	for i, t := range trees {
		b.trees[roots[i]] = t
	}
	return nil
}

// growClusters runs the limited Bellman-Ford from roots, the path-recovery
// joins and the final limited exploration; the results stay in the kernel's
// estimates for the tree extractor. The meter charges of adopted estimates
// (hopset.LimitedBF.Add) model the retained cluster knowledge and are
// intentionally not released.
func (b *builder) growClusters(level int, roots []int) error {
	bf := b.bf
	b.srcs = b.srcs[:0]
	for _, r := range roots {
		b.srcs = append(b.srcs, hopset.Source{Root: r, At: r})
	}
	iters, err := bf.Run(b.srcs, b.pivotD[level+1], b.o.Epsilon)
	if err != nil {
		return err
	}
	b.maxBeta = max(b.maxBeta, iters)

	// Path recovery: every estimate realised through a hopset edge joins
	// all vertices of the edge's underlying host path to the cluster
	// (Claim 9) and fixes the endpoint's host parent.
	est := bf.Estimates()
	maxPath := 0
	for w := 0; w < b.n; w++ {
		for idx := 0; idx < len(est[w]); idx++ {
			r, x := est[w][idx].Root, est[w][idx].Via
			if x == graph.NoVertex {
				continue
			}
			path, ok := b.hs.Walk(b.walk[:0], x, w)
			b.walk = path
			if !ok || len(path) < 2 {
				return fmt.Errorf("core: missing recovery path for hopset edge (%d,%d)", x, w)
			}
			maxPath = max(maxPath, len(path))
			src := bf.Get(x, r)
			if src == nil {
				return fmt.Errorf("core: missing source estimate for hopset edge (%d,%d)", x, w)
			}
			// Cumulative distances along the path from x.
			acc := src.Dist
			for i := 1; i < len(path); i++ {
				u, prev := path[i], path[i-1]
				wgt, okw := graph.TopoEdgeWeight(b.topo, prev, u)
				if !okw {
					return fmt.Errorf("core: recovery path hop {%d,%d} not an edge", prev, u)
				}
				acc += wgt
				cur := bf.Get(u, r)
				switch {
				case cur == nil:
					bf.Add(u, hopset.Estimate{Root: r, Dist: acc, Parent: prev, Via: graph.NoVertex, Origin: r, Joined: true})
				case (u == w && cur.Parent == graph.NoVertex) || acc < cur.Dist:
					// Anchor to the recovery path: either this improves the
					// estimate, or this is the walk of u's own hopset edge
					// (u is its head) and the entry has no host parent yet.
					// In the latter case acc can exceed cur.Dist by
					// floating-point noise (the edge weight was accumulated
					// in the opposite path orientation); adopting acc keeps
					// the parent chain's distances consistent and strictly
					// decreasing.
					cur.Dist = acc
					cur.Parent = prev
					cur.Via = graph.NoVertex
					cur.Joined = true
				default:
					cur.Joined = true
				}
			}
		}
	}
	// Protocol cost (pipelined notifications along all used paths).
	b.sim.AddRounds(int64(maxPath) + 2*int64(b.sim.Diameter()))
	// Final limited B-bounded exploration in G from every member estimate,
	// seeded in (vertex, root) order (Explore's tie-breaking follows seed
	// order, so the schedule must be canonical).
	srcs := bf.Sources(b.inClusterFn)
	if len(srcs) == 0 {
		return nil
	}
	ex, err := b.ex.Explore(srcs, hopset.ExploreOptions{Hops: b.vg.B(), Limit: b.hostFn})
	if err != nil {
		return err
	}
	for v := 0; v < b.n; v++ {
		for _, en := range ex.At(v) {
			if en.Parent == graph.NoVertex {
				continue
			}
			if cur := bf.Get(v, en.Root); cur == nil {
				bf.Add(v, hopset.Estimate{Root: en.Root, Dist: en.Dist, Parent: en.Parent, Via: graph.NoVertex, Origin: en.Root})
			} else if en.Dist < cur.Dist {
				cur.Dist = en.Dist
				cur.Parent = en.Parent
				cur.Via = graph.NoVertex
			}
		}
	}
	return nil
}

// inCluster is the approximate clusters' membership rule: the root, joined
// path vertices, and vertices whose estimate beats the (1+ε)-relaxed bound.
func (b *builder) inCluster(v int, e *hopset.Estimate) bool {
	return v == e.Root || e.Joined || b.bf.HostLimit(v, e.Root, e.Dist)
}

// member is inCluster in the tree extractor's form.
func (b *builder) member(v int, e *hopset.Estimate) (root, parent int, ok bool) {
	return e.Root, e.Parent, b.inCluster(v, e)
}

// assemble runs the low-memory tree routing on every cluster tree in
// parallel and produces the final tables and labels.
func (b *builder) assemble() (*Scheme, error) {
	var trees []*graph.Tree
	perVertex := make([]int, b.n)
	portals := 0
	for _, t := range b.trees {
		if t == nil {
			continue
		}
		trees = append(trees, t)
		for i := 0; i < t.Size(); i++ {
			perVertex[t.MemberAt(i)]++
		}
	}
	s := 1
	for _, c := range perVertex {
		if c > s {
			s = c
		}
	}
	q := 1 / math.Sqrt(float64(s)*float64(b.n))
	maxOffset := int(math.Sqrt(float64(s)*float64(b.n))*math.Log2(float64(b.n)+1)) + 1
	var res *treeroute.DistResult
	err := b.timed("tree-routing", func() (err error) {
		res, err = treeroute.BuildDistributed(b.sim, trees, treeroute.DistOptions{
			Q:         q,
			Seed:      b.o.Seed + 2,
			MaxOffset: maxOffset,
		})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("core: tree routing: %w", err)
	}
	for _, p := range res.Portals {
		portals += p
	}

	scheme := &Scheme{Scheme: clusterroute.New(b.k, b.n)}
	scheme.Clusters = make([]clusterroute.Cluster, 0, len(trees))
	for _, ts := range res.Schemes {
		scheme.AddTree(ts, b.topo)
	}
	scheme.AddLabels(b.pivotRoot[:b.k])
	for v := 0; v < b.n; v++ {
		b.sim.Mem(v).Charge(int64(2 * b.k)) // pivot ids in the label
	}

	scheme.Stats = Stats{
		K:              b.k,
		N:              b.n,
		B:              b.vg.B(),
		VirtualSize:    b.vg.M(),
		HopsetEdges:    b.hs.Size(),
		HopsetArbor:    b.hs.MaxOutDegree(),
		BetaRealised:   b.maxBeta,
		Clusters:       len(trees),
		MaxTreesPerVtx: s,
		TreePortals:    portals,
		PhaseRounds:    b.phaseRounds,
	}
	return scheme, nil
}
