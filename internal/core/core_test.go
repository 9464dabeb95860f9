package core

import (
	"math"
	"math/rand"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/graph"
)

func testGraph(t *testing.T, f graph.Family, n int, seed int64) *graph.CSR {
	t.Helper()
	g, err := graph.GenerateCSR(f, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func buildScheme(t *testing.T, g *graph.CSR, k int, seed int64) (*Scheme, *congest.Simulator) {
	t.Helper()
	sim := congest.NewTopo(g)
	s, err := Build(sim, Options{K: k, Seed: seed, Epsilon: 0.01})
	if err != nil {
		t.Fatalf("Build k=%d: %v", k, err)
	}
	return s, sim
}

func TestBuildErrors(t *testing.T) {
	g := testGraph(t, graph.FamilyErdosRenyi, 20, 1)
	if _, err := Build(congest.NewTopo(g), Options{K: 0}); err == nil {
		t.Fatal("k=0 should error")
	}
}

func TestRoutingArrivesAndWalksEdges(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		g := testGraph(t, graph.FamilyErdosRenyi, 150, int64(100+k))
		s, _ := buildScheme(t, g, k, int64(k))
		tab := dataplane.Compile(s.Scheme)
		r := rand.New(rand.NewSource(int64(k)))
		for trial := 0; trial < 120; trial++ {
			u, v := r.Intn(g.N()), r.Intn(g.N())
			path, _, err := tab.Route(u, v)
			if err != nil {
				t.Fatalf("k=%d route %d->%d: %v", k, u, v, err)
			}
			if path[0] != u {
				t.Fatalf("path starts at %d want %d", path[0], u)
			}
			if u != v && path[len(path)-1] != v {
				t.Fatalf("k=%d route %d->%d ends at %d", k, u, v, path[len(path)-1])
			}
			for i := 1; i < len(path); i++ {
				if !graph.TopoHasEdge(g, path[i-1], path[i]) {
					t.Fatalf("hop {%d,%d} not an edge", path[i-1], path[i])
				}
			}
		}
	}
}

func TestStretchBound(t *testing.T) {
	// Theorem 3: stretch 4k-3+o(1) (the variant described in Appendix B).
	// With ε=0.01 the o(1) term is well under the +0.5 slack used here.
	for _, tt := range []struct {
		family graph.Family
		n, k   int
	}{
		{graph.FamilyErdosRenyi, 140, 2},
		{graph.FamilyErdosRenyi, 140, 3},
		{graph.FamilyGeometric, 140, 2},
	} {
		g := testGraph(t, tt.family, tt.n, 7)
		s, _ := buildScheme(t, g, tt.k, 8)
		tab := dataplane.Compile(s.Scheme)
		exact := graph.AllPairs(g)
		bound := float64(4*tt.k-3) + 0.5
		r := rand.New(rand.NewSource(9))
		worst := 0.0
		for trial := 0; trial < 200; trial++ {
			u, v := r.Intn(g.N()), r.Intn(g.N())
			if u == v {
				continue
			}
			_, w, err := tab.Route(u, v)
			if err != nil {
				t.Fatalf("%s k=%d route %d->%d: %v", tt.family, tt.k, u, v, err)
			}
			if st := w / exact[u][v]; st > worst {
				worst = st
			}
		}
		if worst > bound {
			t.Fatalf("%s k=%d: worst stretch %v exceeds %v", tt.family, tt.k, worst, bound)
		}
	}
}

func TestK1IsExact(t *testing.T) {
	g := testGraph(t, graph.FamilyErdosRenyi, 80, 11)
	s, _ := buildScheme(t, g, 1, 12)
	tab := dataplane.Compile(s.Scheme)
	exact := graph.AllPairs(g)
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		_, w, err := tab.Route(u, v)
		if err != nil {
			t.Fatalf("route %d->%d: %v", u, v, err)
		}
		if w != exact[u][v] {
			t.Fatalf("k=1 route %d->%d length %v want %v", u, v, w, exact[u][v])
		}
	}
}

func TestClaim9ApproxClustersInsideExactClusters(t *testing.T) {
	// Claim 9: C̃(v) ⊆ C(v). Verified with true distances: every member u
	// of a high-level center's tree satisfies d(v,u) <= d(u, A_{i+1}).
	n, k := 150, 2
	g := testGraph(t, graph.FamilyErdosRenyi, n, 21)
	s, _ := buildScheme(t, g, k, 22)
	// Reconstruct the hierarchy deterministically: Build used Seed 22.
	// Instead of replaying sampling, recover A_1 from the scheme: the
	// level-1 pivot roots are exactly the A_1 vertices in use.
	inA1 := make(map[int]bool)
	for _, lab := range s.Labels {
		for _, e := range lab.Entries {
			if e.Level == 1 && e.Root != graph.NoVertex {
				inA1[e.Root] = true
			}
		}
	}
	var a1 []int
	for v := range inA1 {
		a1 = append(a1, v)
	}
	if len(a1) == 0 {
		t.Skip("no level-1 pivots sampled")
	}
	dA2 := make([]float64, n) // d(·, A_2) = ∞ for k=2
	for i := range dA2 {
		dA2[i] = graph.Infinity
	}
	for root := range inA1 {
		c := s.Cluster(root)
		if c == nil {
			continue
		}
		tree := c.Tree
		exact := graph.Dijkstra(g, root)
		for _, u := range tree.Members() {
			if exact.Dist[u] > dA2[u] {
				t.Fatalf("member %d of C̃(%d) violates Claim 9", u, root)
			}
		}
	}
}

func TestClusterTreesAreShortestPathLike(t *testing.T) {
	// Tree distances from the root must be within (1+ε)-ish of true
	// distances (approximate clusters route along near-shortest paths).
	n, k := 120, 2
	g := testGraph(t, graph.FamilyErdosRenyi, n, 31)
	s, _ := buildScheme(t, g, k, 32)
	for _, c := range s.Clusters {
		root, tree := c.Center, c.Tree
		exact := graph.Dijkstra(g, root)
		weights := tree.UpWeights(g)
		depths := make(map[int]float64)
		for _, v := range tree.PreOrder() {
			if v == root {
				depths[v] = 0
				continue
			}
			depths[v] = depths[tree.Parent(v)] + weights[tree.MemberIndex(v)]
		}
		for _, v := range tree.Members() {
			if depths[v] < exact.Dist[v]-1e-9 {
				t.Fatalf("tree %d: member %d at depth %v below exact %v", root, v, depths[v], exact.Dist[v])
			}
			if depths[v] > exact.Dist[v]*1.2+1e-9 {
				t.Fatalf("tree %d: member %d at depth %v far above exact %v", root, v, depths[v], exact.Dist[v])
			}
		}
	}
}

func TestTableAndLabelSizes(t *testing.T) {
	n, k := 200, 3
	g := testGraph(t, graph.FamilyErdosRenyi, n, 41)
	s, _ := buildScheme(t, g, k, 42)
	// Labels: O(k log n) words.
	labelBound := k * (3 + 2*int(math.Ceil(math.Log2(float64(n)))))
	if got := s.MaxLabelWords(); got > labelBound {
		t.Fatalf("label words %d exceed O(k log n) bound %d", got, labelBound)
	}
	// Tables: Õ(n^{1/k}): each of <= c·n^{1/k}·ln n trees costs 5 words.
	tableBound := int(5 * 4 * math.Pow(float64(n), 1/float64(k)) * math.Log(float64(n)))
	if got := s.MaxTableWords(); got > tableBound {
		t.Fatalf("table words %d exceed Õ(n^{1/k}) bound %d", got, tableBound)
	}
	if got := s.MaxClustersPerVertex(); got > int(4*math.Pow(float64(n), 1/float64(k))*math.Log(float64(n))) {
		t.Fatalf("clusters per vertex %d exceed Claim 6 bound", got)
	}
}

func TestStatsPopulated(t *testing.T) {
	g := testGraph(t, graph.FamilyErdosRenyi, 100, 51)
	s, sim := buildScheme(t, g, 2, 52)
	st := s.Stats
	if st.N != 100 || st.K != 2 {
		t.Fatalf("stats basics wrong: %+v", st)
	}
	if st.B < 2 {
		t.Fatalf("B=%d", st.B)
	}
	if st.Clusters == 0 || st.MaxTreesPerVtx == 0 {
		t.Fatalf("cluster stats empty: %+v", st)
	}
	if st.VirtualSize > 0 && st.HopsetArbor > st.VirtualSize {
		t.Fatalf("arboricity %d above |V'|=%d", st.HopsetArbor, st.VirtualSize)
	}
	if sim.Rounds() == 0 || sim.Messages() == 0 {
		t.Fatal("simulation counters empty")
	}
	if sim.PeakMemory() == 0 {
		t.Fatal("no memory charged")
	}
}

func TestMemoryIsSublinear(t *testing.T) {
	// Theorem 3's headline: Õ(n^{1/k}) memory per vertex. Assert the peak
	// stays well below n (the Ω(sqrt n)-memory schemes would not).
	n, k := 256, 4
	g := testGraph(t, graph.FamilyErdosRenyi, n, 61)
	_, sim := buildScheme(t, g, k, 62)
	logn := math.Log2(float64(n))
	bound := int64(20 * math.Pow(float64(n), 1/float64(k)) * logn * logn)
	if peak := sim.PeakMemory(); peak > bound {
		t.Fatalf("peak memory %d exceeds Õ(n^{1/k}) slack bound %d", peak, bound)
	}
}

func TestDeterministicBuild(t *testing.T) {
	g := testGraph(t, graph.FamilyErdosRenyi, 90, 71)
	run := func() (int64, int64, int) {
		sim := congest.NewTopo(g)
		s, err := Build(sim, Options{K: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Rounds(), sim.Messages(), s.MaxTableWords()
	}
	r1, m1, t1 := run()
	r2, m2, t2 := run()
	if r1 != r2 || m1 != m2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", r1, m1, t1, r2, m2, t2)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewCSRBuilder(0).Build()
	s, err := Build(congest.NewTopo(g), Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Labels) != 0 || len(s.Clusters) != 0 {
		t.Fatal("empty graph should give empty scheme")
	}
}

func TestGridStretch(t *testing.T) {
	// Large-diameter family: exercises the D term and deep trees.
	g := testGraph(t, graph.FamilyGrid, 100, 81)
	s, _ := buildScheme(t, g, 2, 82)
	tab := dataplane.Compile(s.Scheme)
	exact := graph.AllPairs(g)
	r := rand.New(rand.NewSource(83))
	bound := float64(4*2-3) + 0.5
	for trial := 0; trial < 100; trial++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		if u == v {
			continue
		}
		_, w, err := tab.Route(u, v)
		if err != nil {
			t.Fatalf("route %d->%d: %v", u, v, err)
		}
		if st := w / exact[u][v]; st > bound {
			t.Fatalf("grid stretch %v exceeds %v (%d->%d)", st, bound, u, v)
		}
	}
}
