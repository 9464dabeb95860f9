package treeroute

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

// buildBoth builds the distributed scheme and the centralized reference on
// the same tree.
func buildBoth(t *testing.T, g graph.Topology, tr *graph.Tree, opts DistOptions) (*Scheme, *Scheme, *congest.Simulator) {
	t.Helper()
	sim := congest.NewTopo(g, congest.WithSeed(opts.Seed))
	res, err := BuildDistributed(sim, []*graph.Tree{tr}, opts)
	if err != nil {
		t.Fatalf("BuildDistributed: %v", err)
	}
	if len(res.Schemes) != 1 {
		t.Fatalf("got %d schemes", len(res.Schemes))
	}
	return res.Schemes[0], BuildCentralized(tr), sim
}

func requireSchemesEqual(t *testing.T, dist, central *Scheme) {
	t.Helper()
	if len(dist.Tables) != len(central.Tables) {
		t.Fatalf("table counts differ: %d vs %d", len(dist.Tables), len(central.Tables))
	}
	for v, want := range central.Tables {
		got, ok := dist.Tables[v]
		if !ok {
			t.Fatalf("vertex %d missing from distributed tables", v)
		}
		if got != want {
			t.Fatalf("table of %d: distributed %+v centralized %+v", v, got, want)
		}
	}
	for v, want := range central.Labels {
		got := dist.Labels[v]
		if got.In != want.In {
			t.Fatalf("label In of %d: %d vs %d", v, got.In, want.In)
		}
		if len(got.Light) != len(want.Light) {
			t.Fatalf("label light list of %d: %v vs %v", v, got.Light, want.Light)
		}
		for i := range want.Light {
			if got.Light[i] != want.Light[i] {
				t.Fatalf("label light list of %d: %v vs %v", v, got.Light, want.Light)
			}
		}
	}
}

func TestDistributedMatchesCentralizedSmall(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := graph.RandomTree(30, graph.UnitWeights, r)
	tr, err := graph.SpanningTree(graph.FromGraph(g), 0, "bfs", r)
	if err != nil {
		t.Fatal(err)
	}
	dist, central, _ := buildBoth(t, graph.FromGraph(g), tr, DistOptions{Q: 0.3, Seed: 11})
	requireSchemesEqual(t, dist, central)
}

func TestDistributedMatchesCentralizedShapes(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	shapes := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(80, graph.UnitWeights, r)},
		{"star", graph.Star(80, graph.UnitWeights, r)},
		{"balanced", graph.BalancedTree(81, 3, graph.UnitWeights, r)},
		{"caterpillar", graph.Caterpillar(25, 75, graph.UnitWeights, r)},
		{"random", graph.RandomTree(90, graph.UnitWeights, r)},
	}
	for _, tt := range shapes {
		t.Run(tt.name, func(t *testing.T) {
			tr, err := graph.SpanningTree(graph.FromGraph(tt.g), 0, "dfs", r)
			if err != nil {
				t.Fatal(err)
			}
			dist, central, _ := buildBoth(t, graph.FromGraph(tt.g), tr, DistOptions{Seed: 3})
			requireSchemesEqual(t, dist, central)
			if err := VerifyExact(dist, tr, SamplePairs(tr, 60, r)); err != nil {
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
	dist, central, _ := buildBoth(t, g, tr, DistOptions{Seed: 13})
	requireSchemesEqual(t, dist, central)
	if err := VerifyExact(dist, tr, SamplePairs(tr, 100, r)); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedSingleVertexTree(t *testing.T) {
	g := graph.New(1)
	tr, err := graph.NewTree(0, []int{graph.NoVertex})
	if err != nil {
		t.Fatal(err)
	}
	dist, central, _ := buildBoth(t, graph.FromGraph(g), tr, DistOptions{Seed: 1})
	requireSchemesEqual(t, dist, central)
}

func TestDistributedTwoVertexTree(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1)
	tr, err := graph.NewTree(0, []int{graph.NoVertex, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.01, 0.5, 1} {
		dist, central, _ := buildBoth(t, graph.FromGraph(g), tr, DistOptions{Q: q, Seed: 2})
		requireSchemesEqual(t, dist, central)
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
	dist, central, _ := buildBoth(t, g, tr, DistOptions{Q: 0.3, Seed: 5})
	requireSchemesEqual(t, dist, central)
}

func TestDistributedQExtremes(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	g := graph.RandomTree(50, graph.UnitWeights, r)
	tr, err := graph.SpanningTree(graph.FromGraph(g), 0, "bfs", r)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.999, 0.02} {
		dist, central, _ := buildBoth(t, graph.FromGraph(g), tr, DistOptions{Q: q, Seed: 23})
		requireSchemesEqual(t, dist, central)
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
		tr, err := graph.SpanningTree(graph.FromGraph(g), root, "dfs", r)
		if err != nil {
			return false
		}
		q := 0.02 + 0.96*float64(qRaw)/65535
		sim := congest.NewTopo(graph.FromGraph(g), congest.WithSeed(seed))
		res, err := BuildDistributed(sim, []*graph.Tree{tr}, DistOptions{Q: q, Seed: seed})
		if err != nil {
			return false
		}
		central := BuildCentralized(tr)
		dist := res.Schemes[0]
		for v, want := range central.Tables {
			if dist.Tables[v] != want {
				return false
			}
		}
		for v, want := range central.Labels {
			got := dist.Labels[v]
			if got.In != want.In || len(got.Light) != len(want.Light) {
				return false
			}
			for i := range want.Light {
				if got.Light[i] != want.Light[i] {
					return false
				}
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
		tr, err := graph.SpanningTree(graph.FromGraph(g), 0, "dfs", r)
		if err != nil {
			t.Fatal(err)
		}
		sim := congest.NewTopo(graph.FromGraph(g), congest.WithSeed(1))
		if _, err := BuildDistributed(sim, []*graph.Tree{tr}, DistOptions{Seed: 1}); err != nil {
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
		sim := congest.NewTopo(g, congest.WithSeed(2))
		if _, err := BuildDistributed(sim, []*graph.Tree{tr}, DistOptions{Seed: 2}); err != nil {
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
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	// Tree claims edge {0,2} which is not in the graph.
	tr, err := graph.NewTree(0, []int{graph.NoVertex, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	sim := congest.NewTopo(graph.FromGraph(g))
	if _, err := BuildDistributed(sim, []*graph.Tree{tr}, DistOptions{}); err == nil {
		t.Fatal("tree with non-graph edge should be rejected")
	}
}

func TestDistributedHostSizeMismatch(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	tr, err := graph.NewTree(0, []int{graph.NoVertex, 0})
	if err != nil {
		t.Fatal(err)
	}
	sim := congest.NewTopo(graph.FromGraph(g))
	if _, err := BuildDistributed(sim, []*graph.Tree{tr}, DistOptions{}); err == nil {
		t.Fatal("host size mismatch should be rejected")
	}
}

func TestDistributedNoTrees(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1)
	res, err := BuildDistributed(congest.NewTopo(graph.FromGraph(g)), nil, DistOptions{})
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
	sim := congest.NewTopo(g, congest.WithSeed(5))
	res, err := BuildDistributed(sim, trees, DistOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for j, tr := range trees {
		requireSchemesEqual(t, res.Schemes[j], BuildCentralized(tr))
		if err := VerifyExact(res.Schemes[j], tr, SamplePairs(tr, 40, r)); err != nil {
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
		sim := congest.NewTopo(g, congest.WithSeed(9))
		if _, err := BuildDistributed(sim, []*graph.Tree{tr}, DistOptions{Seed: 9}); err != nil {
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
