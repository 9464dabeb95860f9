package treeroute_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/treeroute"
)

// buildBoth builds the distributed scheme and the centralized reference on
// the same tree.
func buildBoth(t *testing.T, g graph.Topology, tr *graph.Tree, opts treeroute.DistOptions) (*treeroute.Scheme, *treeroute.Scheme, *congest.Simulator) {
	t.Helper()
	sim := congest.NewTopo(g)
	res, err := treeroute.BuildDistributed(sim, []*graph.Tree{tr}, opts)
	if err != nil {
		t.Fatalf("BuildDistributed: %v", err)
	}
	if len(res.Schemes) != 1 {
		t.Fatalf("got %d schemes", len(res.Schemes))
	}
	return res.Schemes[0], treeroute.BuildCentralized(tr), sim
}

func TestDistributedMatchesCentralizedSmall(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := graph.RandomTree(30, graph.UnitWeights, r)
	tr, err := graph.SpanningTree(g, 0, "bfs", r)
	if err != nil {
		t.Fatal(err)
	}
	dist, central, _ := buildBoth(t, g, tr, treeroute.DistOptions{Q: 0.3, Seed: 11})
	treeroute.RequireSchemesEqual(t, dist, central)
}

func TestDistributedMatchesCentralizedShapes(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	shapes := []struct {
		name string
		g    *graph.CSR
	}{
		{"path", graph.Path(80, graph.UnitWeights, r)},
		{"star", graph.Star(80, graph.UnitWeights, r)},
		{"balanced", graph.BalancedTree(81, 3, graph.UnitWeights, r)},
		{"caterpillar", graph.Caterpillar(25, 75, graph.UnitWeights, r)},
		{"random", graph.RandomTree(90, graph.UnitWeights, r)},
	}
	for _, tt := range shapes {
		t.Run(tt.name, func(t *testing.T) {
			tr, err := graph.SpanningTree(tt.g, 0, "dfs", r)
			if err != nil {
				t.Fatal(err)
			}
			dist, central, _ := buildBoth(t, tt.g, tr, treeroute.DistOptions{Seed: 3})
			treeroute.RequireSchemesEqual(t, dist, central)
			if err := treeroute.VerifyExact(compiled(dist), tr, treeroute.SamplePairs(tr, 60, r)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDistributedTreeOnGeneralGraph(t *testing.T) {
	// The tree is a DFS spanning tree (deep) of a well-connected graph
	// (shallow D): the regime the paper targets.
	r := rand.New(rand.NewSource(21))
	g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, 200, r)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.SpanningTree(g, 5, "dfs", r)
	if err != nil {
		t.Fatal(err)
	}
	dist, central, _ := buildBoth(t, g, tr, treeroute.DistOptions{Seed: 13})
	treeroute.RequireSchemesEqual(t, dist, central)
	if err := treeroute.VerifyExact(compiled(dist), tr, treeroute.SamplePairs(tr, 100, r)); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedSingleVertexTree(t *testing.T) {
	g := graph.NewCSRBuilder(1).Build()
	tr, err := graph.NewTree(0, []int{graph.NoVertex})
	if err != nil {
		t.Fatal(err)
	}
	dist, central, _ := buildBoth(t, g, tr, treeroute.DistOptions{Seed: 1})
	treeroute.RequireSchemesEqual(t, dist, central)
}

func TestDistributedTwoVertexTree(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights, nil)
	tr, err := graph.NewTree(0, []int{graph.NoVertex, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.01, 0.5, 1} {
		dist, central, _ := buildBoth(t, g, tr, treeroute.DistOptions{Q: q, Seed: 2})
		treeroute.RequireSchemesEqual(t, dist, central)
	}
}

func TestDistributedSubsetTree(t *testing.T) {
	// Tree over a strict subset of the graph's vertices.
	r := rand.New(rand.NewSource(31))
	g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, 60, r)
	if err != nil {
		t.Fatal(err)
	}
	bfs := graph.BFS(g, 0)
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = graph.NoVertex
	}
	// Members: vertices within 2 hops of vertex 0.
	for v := 0; v < g.N(); v++ {
		if v != 0 && bfs.Hops[v] <= 2 {
			parent[v] = bfs.Parent[v]
		}
	}
	tr, err := graph.NewTree(0, parent)
	if err != nil {
		t.Fatal(err)
	}
	dist, central, _ := buildBoth(t, g, tr, treeroute.DistOptions{Q: 0.3, Seed: 5})
	treeroute.RequireSchemesEqual(t, dist, central)
}

func TestDistributedQExtremes(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	g := graph.RandomTree(50, graph.UnitWeights, r)
	tr, err := graph.SpanningTree(g, 0, "bfs", r)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.999, 0.02} {
		dist, central, _ := buildBoth(t, g, tr, treeroute.DistOptions{Q: q, Seed: 23})
		treeroute.RequireSchemesEqual(t, dist, central)
	}
}

// Property: for random trees, random roots, random q, the distributed
// construction reproduces the centralized Thorup-Zwick scheme exactly.
func TestDistributedMatchesCentralizedProperty(t *testing.T) {
	f := func(seed int64, sz, rootRaw uint8, qRaw uint16) bool {
		n := int(sz%90) + 2
		r := rand.New(rand.NewSource(seed))
		g := graph.RandomTree(n, graph.UnitWeights, r)
		root := int(rootRaw) % n
		tr, err := graph.SpanningTree(g, root, "dfs", r)
		if err != nil {
			return false
		}
		q := 0.02 + 0.96*float64(qRaw)/65535
		sim := congest.NewTopo(g)
		res, err := treeroute.BuildDistributed(sim, []*graph.Tree{tr}, treeroute.DistOptions{Q: q, Seed: seed})
		if err != nil {
			return false
		}
		central := treeroute.BuildCentralized(tr)
		dist := res.Schemes[0]
		if !slices.Equal(dist.Tables, central.Tables) {
			return false
		}
		for i, want := range central.Labels {
			if got := dist.Labels[i]; got.In != want.In || !slices.Equal(got.Light, want.Light) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedMemoryIsLogarithmic(t *testing.T) {
	// Theorem 2: every vertex uses O(log n) words. Constants in the
	// construction are small; we assert peak <= c*log2(n)^2 to leave room
	// for the label itself (Theta(log n)) plus the ancestor table
	// (Theta(log n)) without being tight to a specific constant.
	r := rand.New(rand.NewSource(41))
	for _, n := range []int{64, 256, 1024} {
		g := graph.RandomTree(n, graph.UnitWeights, r)
		tr, err := graph.SpanningTree(g, 0, "dfs", r)
		if err != nil {
			t.Fatal(err)
		}
		sim := congest.NewTopo(g)
		if _, err := treeroute.BuildDistributed(sim, []*graph.Tree{tr}, treeroute.DistOptions{Seed: 1}); err != nil {
			t.Fatal(err)
		}
		logn := math.Log2(float64(n))
		bound := int64(8 * logn * logn)
		if peak := sim.PeakMemory(); peak > bound {
			t.Fatalf("n=%d: peak memory %d words exceeds O(log^2 n) slack bound %d", n, peak, bound)
		}
	}
}

func TestDistributedRoundsScaleSublinearly(t *testing.T) {
	// Theorem 2: Õ(sqrt(n)+D) rounds. On a deep DFS tree of a shallow
	// graph this is far below the tree height; assert rounds are o(n·polylog)
	// by checking against c·sqrt(n)·log^2(n)+c·D·log(n).
	r := rand.New(rand.NewSource(43))
	for _, n := range []int{256, 1024} {
		g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, n, r)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := graph.SpanningTree(g, 0, "dfs", r)
		if err != nil {
			t.Fatal(err)
		}
		sim := congest.NewTopo(g)
		if _, err := treeroute.BuildDistributed(sim, []*graph.Tree{tr}, treeroute.DistOptions{Seed: 2}); err != nil {
			t.Fatal(err)
		}
		logn := math.Log2(float64(n))
		bound := int64(40*math.Sqrt(float64(n))*logn*logn) + int64(40*float64(sim.Diameter())*logn)
		if sim.Rounds() > bound {
			t.Fatalf("n=%d: rounds %d exceed Õ(sqrt(n)+D) slack bound %d", n, sim.Rounds(), bound)
		}
	}
}

func TestDistributedTreeEdgesMustBeGraphEdges(t *testing.T) {
	g := graph.Path(3, graph.UnitWeights, nil)
	// Tree claims edge {0,2} which is not in the graph.
	tr, err := graph.NewTree(0, []int{graph.NoVertex, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	sim := congest.NewTopo(g)
	if _, err := treeroute.BuildDistributed(sim, []*graph.Tree{tr}, treeroute.DistOptions{}); err == nil {
		t.Fatal("tree with non-graph edge should be rejected")
	}
}

func TestDistributedHostSizeMismatch(t *testing.T) {
	b := graph.NewCSRBuilder(3)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	tr, err := graph.NewTree(0, []int{graph.NoVertex, 0})
	if err != nil {
		t.Fatal(err)
	}
	sim := congest.NewTopo(g)
	if _, err := treeroute.BuildDistributed(sim, []*graph.Tree{tr}, treeroute.DistOptions{}); err == nil {
		t.Fatal("host size mismatch should be rejected")
	}
}

func TestDistributedNoTrees(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights, nil)
	res, err := treeroute.BuildDistributed(congest.NewTopo(g), nil, treeroute.DistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schemes) != 0 {
		t.Fatal("no trees -> no schemes")
	}
}

func TestDistributedMultiTree(t *testing.T) {
	// Several overlapping trees built in parallel: all must match their
	// centralized references.
	r := rand.New(rand.NewSource(55))
	g, err := graph.GenerateCSR(graph.FamilyGeometric, 150, r)
	if err != nil {
		t.Fatal(err)
	}
	var trees []*graph.Tree
	for _, root := range []int{0, 17, 42, 99} {
		tr, err := graph.SpanningTree(g, root, "sssp", r)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	sim := congest.NewTopo(g)
	res, err := treeroute.BuildDistributed(sim, trees, treeroute.DistOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for j, tr := range trees {
		treeroute.RequireSchemesEqual(t, res.Schemes[j], treeroute.BuildCentralized(tr))
		if err := treeroute.VerifyExact(compiled(res.Schemes[j]), tr, treeroute.SamplePairs(tr, 40, r)); err != nil {
			t.Fatalf("tree %d: %v", j, err)
		}
	}
	if len(res.Portals) != 4 {
		t.Fatalf("Portals=%v", res.Portals)
	}
	for j, p := range res.Portals {
		if p < 1 {
			t.Fatalf("tree %d has %d portals", j, p)
		}
	}
}

func TestDistributedDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(60))
	g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, 100, r)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.SpanningTree(g, 0, "dfs", r)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (int64, int64) {
		sim := congest.NewTopo(g)
		if _, err := treeroute.BuildDistributed(sim, []*graph.Tree{tr}, treeroute.DistOptions{Seed: 9}); err != nil {
			t.Fatal(err)
		}
		return sim.Rounds(), sim.Messages()
	}
	r1, m1 := run()
	r2, m2 := run()
	if r1 != r2 || m1 != m2 {
		t.Fatalf("nondeterministic: rounds %d/%d messages %d/%d", r1, r2, m1, m2)
	}
}
