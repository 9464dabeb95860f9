package treeroute

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

func TestBaselineExactSmall(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	g := graph.RandomTree(40, graph.UnitWeights, r)
	tr, err := graph.SpanningTree(g, 0, "bfs", r)
	if err != nil {
		t.Fatal(err)
	}
	sim := congest.NewTopo(g)
	s, err := BuildBaseline(sim, tr, DistOptions{Q: 0.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyExact(s.RouteAppend, tr, AllPairs(tr)); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineExactShapes(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	shapes := []*graph.CSR{
		graph.Path(70, graph.UnitWeights, r),
		graph.Star(70, graph.UnitWeights, r),
		graph.Caterpillar(20, 60, graph.UnitWeights, r),
		graph.BalancedTree(80, 3, graph.UnitWeights, r),
	}
	for i, g := range shapes {
		tr, err := graph.SpanningTree(g, 0, "dfs", r)
		if err != nil {
			t.Fatal(err)
		}
		sim := congest.NewTopo(g)
		s, err := BuildBaseline(sim, tr, DistOptions{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyExact(s.RouteAppend, tr, SamplePairs(tr, 80, r)); err != nil {
			t.Fatal(err)
		}
	}
}

// Property: baseline routing is exact for random trees, roots and sampling
// rates.
func TestBaselineExactProperty(t *testing.T) {
	f := func(seed int64, sz, rootRaw uint8, qRaw uint16) bool {
		n := int(sz%80) + 2
		r := rand.New(rand.NewSource(seed))
		g := graph.RandomTree(n, graph.UnitWeights, r)
		tr, err := graph.SpanningTree(g, int(rootRaw)%n, "dfs", r)
		if err != nil {
			return false
		}
		q := 0.05 + 0.9*float64(qRaw)/65535
		sim := congest.NewTopo(g)
		s, err := BuildBaseline(sim, tr, DistOptions{Q: q, Seed: seed})
		if err != nil {
			return false
		}
		return VerifyExact(s.RouteAppend, tr, SamplePairs(tr, 30, r)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineMemorySignature(t *testing.T) {
	// The defining deficiency: portal memory grows like the number of
	// portals (Θ(sqrt(n)) at default q), far above the paper's O(log n).
	r := rand.New(rand.NewSource(79))
	n := 1024
	g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, n, r)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.SpanningTree(g, 0, "dfs", r)
	if err != nil {
		t.Fatal(err)
	}

	simB := congest.NewTopo(g)
	if _, err := BuildBaseline(simB, tr, DistOptions{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	simD := congest.NewTopo(g)
	if _, err := BuildDistributed(simD, []*graph.Tree{tr}, DistOptions{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if simB.PeakMemory() < 3*simD.PeakMemory() {
		t.Fatalf("baseline peak %d should far exceed low-memory peak %d",
			simB.PeakMemory(), simD.PeakMemory())
	}
}

func TestBaselineSizesVersusPaper(t *testing.T) {
	// Baseline labels carry an O(log n) factor over the paper's labels;
	// baseline tables are O(log n) versus the paper's O(1).
	r := rand.New(rand.NewSource(83))
	g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, 512, r)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.SpanningTree(g, 0, "dfs", r)
	if err != nil {
		t.Fatal(err)
	}
	simB := congest.NewTopo(g)
	base, err := BuildBaseline(simB, tr, DistOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	simD := congest.NewTopo(g)
	res, err := BuildDistributed(simD, []*graph.Tree{tr}, DistOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	paper := res.Schemes[0]
	if paper.MaxTableWords() != 4 {
		t.Fatalf("paper tables should be 4 words, got %d", paper.MaxTableWords())
	}
	if base.MaxTableWords() <= paper.MaxTableWords() {
		t.Fatalf("baseline tables (%d words) should exceed paper tables (%d words)",
			base.MaxTableWords(), paper.MaxTableWords())
	}
	if base.MaxLabelWords() < paper.MaxLabelWords() {
		t.Fatalf("baseline labels (%d words) should be at least paper labels (%d words)",
			base.MaxLabelWords(), paper.MaxLabelWords())
	}
	if base.MaxHeaderWords() < 1 {
		t.Fatal("baseline should need a nontrivial header")
	}
}

func TestBaselineSingleVertex(t *testing.T) {
	g := graph.NewCSRBuilder(1).Build()
	tr, err := graph.NewTree(0, []int{graph.NoVertex})
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildBaseline(congest.NewTopo(g), tr, DistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path, err := s.RouteAppend(0, 0, nil)
	if err != nil || len(path) != 1 {
		t.Fatalf("path=%v err=%v", path, err)
	}
}

func TestBaselineHostMismatch(t *testing.T) {
	b := graph.NewCSRBuilder(3)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	tr, err := graph.NewTree(0, []int{graph.NoVertex, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildBaseline(congest.NewTopo(g), tr, DistOptions{}); err == nil {
		t.Fatal("host mismatch should error")
	}
}

func TestBaselineRouteErrors(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	g := graph.RandomTree(20, graph.UnitWeights, r)
	tr, err := graph.SpanningTree(g, 0, "bfs", r)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildBaseline(congest.NewTopo(g), tr, DistOptions{Q: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RouteAppend(0, 999, nil); err == nil {
		t.Fatal("unknown destination should error")
	}
}
