// Package core implements the paper's primary contribution (Appendix B,
// Theorem 3): a distributed construction of a Thorup-Zwick-style compact
// routing scheme in the CONGEST RAM model with low per-vertex memory.
//
// The construction:
//
//  1. samples the hierarchy A_0 ⊇ A_1 ⊇ … ⊇ A_k = ∅;
//  2. builds exact clusters for the low levels i < ⌈k/2⌉ by limited
//     Bellman-Ford explorations (hop-bounded per Claim 8, pruned by the
//     next level's pivot distances);
//  3. forms the virtual graph G' on V' = A_{⌈k/2⌉} whose edges are
//     B-bounded distances in G - G' is never materialised - and builds a
//     (β,ε)-hopset H for it with bounded arboricity and path recovery
//     (internal/hopset);
//  4. computes approximate pivots for the high levels by hopset-accelerated
//     Bellman-Ford (each iteration's B-bounded exploration also delivers
//     d̂(·, A_{i+1}) to every host vertex, eq. (5));
//  5. grows approximate clusters for the high levels by multi-root limited
//     Bellman-Ford in G' ∪ H, with the paper's (1+ε)-limit rules bounding
//     memory and congestion, path-recovery joins for used hopset edges
//     (Claims 9-10), and a final limited B-bounded exploration in G;
//  6. runs the low-memory distributed tree routing of Section 3
//     (internal/treeroute) on every cluster tree in parallel, producing
//     tables of Õ(n^{1/k}) words and labels of O(k log n) words.
//
// Routing picks, for a destination label, the lowest level whose pivot
// cluster contains both endpoints and follows the exact tree-routing scheme
// of that cluster tree (stretch 4k-3+o(1), the variant the paper describes;
// the 4k-5 refinement of [TZ01b] trades a polylog table factor and is
// orthogonal to the paper's contribution).
package core

import (
	"fmt"
	"math"
	"math/rand"

	"lowmemroute/internal/clusterroute"
	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/hopset"
	"lowmemroute/internal/trace"
)

// Options configures Build.
type Options struct {
	// K is the hierarchy depth; stretch is 4K-3. Must be >= 1.
	K int
	// Epsilon is the approximation slack of the high-level machinery.
	// Defaults to 0.05. (The paper's 1/(48k^4) requirement is what makes
	// the o(1) in the stretch rigorous; any small ε preserves the shape.)
	Epsilon float64
	// Seed drives all sampling.
	Seed int64
}

// hopScale scales every hop budget: level-j explorations use
// min(n, ⌈hopScale·n^{j/k}·ln n⌉) hops and B uses j = ⌈k/2⌉. The paper's
// constant is 4; 1.5 keeps laptop-scale runs faithful without the galactic
// slack.
const hopScale = 1.5

// hopsetKappa is the hopset hierarchy depth.
const hopsetKappa = 3

// numBuildPhases is the phase count the phase spans carry: the five timed
// phases of Build plus the tree-routing phase run during assemble. Build
// opens one span per phase on the simulator's trace sink (the span tree
// behind Stats.PhaseRounds), with nested sub-phase spans from treeroute
// and hopset.
const numBuildPhases = 6

func (o *Options) withDefaults() Options {
	out := *o
	if out.Epsilon <= 0 {
		out.Epsilon = 0.05
	}
	return out
}

// Stats records construction-level quantities for the evaluation harness.
type Stats struct {
	K              int
	N              int
	B              int // realised B (hops defining E')
	VirtualSize    int // |V'| = |A_{⌈k/2⌉}|
	HopsetEdges    int
	HopsetArbor    int // max out-degree (arboricity witness)
	BetaRealised   int // max BF iterations used by any high-level phase
	Clusters       int
	MaxTreesPerVtx int
	TreePortals    int // total portals over all cluster trees

	// PhaseRounds breaks the total round count down by construction phase
	// (exact-pivots, low-clusters, hopset, approx-pivots, approx-clusters,
	// tree-routing).
	PhaseRounds map[string]int64
}

// Scheme is the complete routing scheme produced by Build. It embeds the
// shared cluster-forest routing machinery of internal/clusterroute.
type Scheme struct {
	*clusterroute.Scheme
	Stats Stats
}

// Build runs the full distributed construction on the simulator.
func Build(sim *congest.Simulator, opts Options) (*Scheme, error) {
	o := opts.withDefaults()
	n := sim.N()
	k := o.K
	if k < 1 {
		return nil, fmt.Errorf("core: k=%d < 1", k)
	}
	if n == 0 {
		return &Scheme{Scheme: clusterroute.New(k, 0)}, nil
	}

	b := newBuilder(sim, o)
	if err := b.timed("exact-pivots", b.exactPivots); err != nil {
		return nil, err
	}
	if err := b.timed("low-clusters", b.lowClusters); err != nil {
		return nil, err
	}
	if err := b.timed("hopset", b.buildHopset); err != nil {
		return nil, err
	}
	if err := b.timed("approx-pivots", b.approxPivots); err != nil {
		return nil, err
	}
	if err := b.timed("approx-clusters", b.approxClusters); err != nil {
		return nil, err
	}
	return b.assemble()
}

// timed runs a phase under a phase span, which tells a registry sink (the
// progress reporter and /metrics) where a long build is, and records the
// simulation rounds it consumed.
func (b *builder) timed(name string, phase func() error) error {
	sp := trace.BeginPhase(b.sim.Trace(), name, b.phasesDone, numBuildPhases)
	before := b.sim.Rounds()
	err := phase()
	b.phaseRounds[name] += b.sim.Rounds() - before
	sp.End()
	b.phasesDone++
	return err
}

// newBuilder starts a build on sim with the defaulted options o: it samples
// the hierarchy and sets the pivots of the two trivial levels, A_0 (every
// vertex is its own pivot at distance 0) and A_k = ∅ (infinite distance).
func newBuilder(sim *congest.Simulator, o Options) *builder {
	n, k := sim.N(), o.K
	b := &builder{
		sim: sim, topo: sim.Topo(), n: n, k: k, o: o,
		ex:          hopset.NewExplorer(sim),
		kHalf:       (k + 1) / 2,
		pivotD:      make([][]float64, k+1),
		pivotRoot:   make([][]int, k+1),
		trees:       make([]*graph.Tree, n),
		phaseRounds: make(map[string]int64),
	}
	b.levels, b.topOf = clusterroute.SampleHierarchy(n, k, rand.New(rand.NewSource(o.Seed)))
	d0, r0 := make([]float64, n), make([]int, n)
	dk, rk := make([]float64, n), make([]int, n)
	for v := 0; v < n; v++ {
		r0[v] = v
		dk[v], rk[v] = graph.Infinity, graph.NoVertex
	}
	b.pivotD[0], b.pivotRoot[0] = d0, r0
	b.pivotD[k], b.pivotRoot[k] = dk, rk
	return b
}

type builder struct {
	sim  *congest.Simulator
	topo graph.Topology
	n    int
	k    int
	o    Options

	// ex is the build's one exploration workspace: every phase explores
	// through it, so its per-vertex state is grown once per build. A
	// result it returns is valid until the next exploration, so each
	// phase consumes its results before the next runs.
	ex *hopset.Explorer

	kHalf  int
	levels [][]int // A_0 .. A_{k-1}
	topOf  []int   // highest level containing each vertex

	// pivotD[j][v] = (approximate) d(v, A_j); pivotRoot[j][v] = the pivot.
	pivotD    [][]float64
	pivotRoot [][]int

	vg *hopset.VirtualGraph
	hs *hopset.Hopset

	// trees[c] is the cluster tree centered at c, nil for a non-center
	// (compact member-indexed trees; membership distances are not
	// retained - nothing downstream reads them).
	trees   []*graph.Tree
	maxBeta int

	// bf is the build's one limited Bellman-Ford in G' ∪ H, created with
	// the hopset: the approximate pivots and the approximate clusters of
	// every level run through it. srcs and walk are the cluster growth's
	// seed and recovery-path buffers; hostFn, inClusterFn and memberFn its
	// limit and membership rules, bound once.
	bf          *hopset.LimitedBF
	srcs        []hopset.Source
	walk        []int
	hostFn      hopset.LimitFunc
	inClusterFn func(v int, e *hopset.Estimate) bool
	memberFn    func(v int, e *hopset.Estimate) (root, parent int, ok bool)

	phaseRounds map[string]int64
	phasesDone  int
}

// hopBudget returns the level-j exploration hop budget
// min(n, ⌈hopScale·n^{j/k}·ln n⌉).
func (b *builder) hopBudget(j int) int {
	h := int(math.Ceil(hopScale * math.Pow(float64(b.n), float64(j)/float64(b.k)) * math.Log(float64(b.n)+1)))
	if h < 2 {
		h = 2
	}
	if h > b.n {
		h = b.n
	}
	return h
}

// exactPivots computes d(·, A_j) for the low levels 1..⌈k/2⌉ by set-source
// explorations with the Claim 8 hop budgets.
func (b *builder) exactPivots() error {
	for j := 1; j <= b.kHalf && j < b.k; j++ {
		dist, _, origin, err := b.ex.DistToSet(b.levels[j], b.hopBudget(j))
		if err != nil {
			return fmt.Errorf("core: pivots for level %d: %w", j, err)
		}
		b.pivotD[j] = dist
		b.pivotRoot[j] = origin
		for v := range dist {
			if dist[v] != graph.Infinity {
				b.sim.Mem(v).Charge(2) // retained pivot distance + id
			}
		}
	}
	return nil
}

// lowClusters grows the exact clusters of every center whose top level is
// below ⌈k/2⌉, by limited explorations pruned at the next level's pivot
// distance.
func (b *builder) lowClusters() error {
	for i := 0; i < b.kHalf && i < b.k; i++ {
		bound := b.pivotD[i+1]
		var srcs []hopset.Source
		for _, w := range b.levels[i] {
			if b.topOf[w] == i {
				srcs = append(srcs, hopset.Source{Root: w, At: w, Dist: 0})
			}
		}
		if len(srcs) == 0 {
			continue
		}
		limit := func(v, root int, d float64) bool { return d < bound[v] }
		res, err := b.ex.Explore(srcs, hopset.ExploreOptions{
			Hops:  b.hopBudget(i + 1),
			Limit: limit,
		})
		if err != nil {
			return fmt.Errorf("core: level %d clusters: %w", i, err)
		}
		trees, err := res.ClusterTrees(srcs, bound)
		if err != nil {
			return fmt.Errorf("core: level %d clusters: %w", i, err)
		}
		for _, t := range trees {
			for j := 0; j < t.Size(); j++ {
				b.sim.Mem(t.MemberAt(j)).Charge(3) // retained cluster entry
			}
			b.trees[t.Root] = t
		}
	}
	return nil
}

func (b *builder) buildHopset() error {
	var members []int
	if b.kHalf < b.k {
		members = b.levels[b.kHalf]
	}
	vg, err := hopset.NewVirtualGraph(b.sim.Topo(), members, b.hopBudget(b.kHalf))
	if err != nil {
		return fmt.Errorf("core: virtual graph: %w", err)
	}
	b.vg = vg
	hs, err := hopset.Build(b.ex, vg, hopset.Options{
		Kappa: hopsetKappa,
		Seed:  b.o.Seed + 1,
	})
	if err != nil {
		return fmt.Errorf("core: hopset: %w", err)
	}
	b.hs = hs
	b.bf = hopset.NewLimitedBF(b.ex, vg, hs)
	b.hostFn = b.bf.HostLimit
	b.inClusterFn = b.inCluster
	b.memberFn = b.member
	return nil
}

// pivotSet is the one root the approximate pivots' seeds share: each
// vertex holds one estimate, whose origin is its pivot.
const pivotSet = -1

// approxPivots computes d̂(·, A_j) for the high levels by
// hopset-accelerated Bellman-Ford (eq. (5): each iteration's B-bounded
// exploration delivers estimates to every host vertex), with no limit. The
// kernel's estimate charge (distance, parent, id) covers the retained pivot
// distance and id.
func (b *builder) approxPivots() error {
	for j := b.kHalf + 1; j < b.k; j++ {
		var seeds []hopset.Source
		for _, v := range b.levels[j] {
			seeds = append(seeds, hopset.Source{Root: pivotSet, At: v})
		}
		iters, err := b.bf.Run(seeds, nil, 0)
		if err != nil {
			return fmt.Errorf("core: approximate pivots for level %d: %w", j, err)
		}
		b.maxBeta = max(b.maxBeta, iters)
		dist, root := make([]float64, b.n), make([]int, b.n)
		for v := range dist {
			dist[v], root[v] = graph.Infinity, graph.NoVertex
			if e := b.bf.Get(v, pivotSet); e != nil {
				dist[v], root[v] = e.Dist, e.Origin
			}
		}
		b.pivotD[j], b.pivotRoot[j] = dist, root
	}
	return nil
}
