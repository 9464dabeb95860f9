package clusterroute_test

import (
	"math/rand"
	"testing"

	"lowmemroute/internal/clusterroute"
	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/treeroute"
)

// buildSingleTreeScheme wraps one spanning tree as a one-cluster scheme:
// routing should then be exact tree routing.
func buildSingleTreeScheme(t *testing.T, n int, seed int64) (*clusterroute.Scheme, *graph.CSR, *graph.Tree) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	gen, err := graph.GenerateCSR(graph.FamilyErdosRenyi, n, r)
	if err != nil {
		t.Fatal(err)
	}
	g := gen
	tree, err := graph.SpanningTree(g, 0, "sssp", r)
	if err != nil {
		t.Fatal(err)
	}
	s := clusterroute.New(1, n)
	ts := treeroute.BuildCentralized(tree)
	s.AddTree(0, tree, g, ts)
	for v := 0; v < n; v++ {
		s.AddLabelEntry(v, 0, 0, ts)
	}
	return s, g, tree
}

func TestSchemeRoutesInSingleTree(t *testing.T) {
	s, g, tree := buildSingleTreeScheme(t, 80, 1)
	tab := dataplane.Compile(s)
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 80; trial++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		path, w, err := tab.Route(u, v)
		if err != nil {
			t.Fatalf("route %d->%d: %v", u, v, err)
		}
		if path[0] != u {
			t.Fatalf("starts at %d", path[0])
		}
		if u != v && path[len(path)-1] != v {
			t.Fatalf("ends at %d", path[len(path)-1])
		}
		if got, want := len(path)-1, tree.TreeDistHops(u, v); got != want {
			t.Fatalf("hops %d want %d", got, want)
		}
		if u == v && w != 0 {
			t.Fatalf("self route weight %v", w)
		}
	}
}

func TestSchemeRouteWeightMatchesTreePath(t *testing.T) {
	s, g, tree := buildSingleTreeScheme(t, 60, 3)
	tab := dataplane.Compile(s)
	weights := tree.UpWeights(g)
	depth := make([]float64, g.N())
	for _, v := range tree.PreOrder() {
		if v != tree.Root {
			depth[v] = depth[tree.Parent(v)] + weights[tree.MemberIndex(v)]
		}
	}
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 60; trial++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		_, w, err := tab.Route(u, v)
		if err != nil {
			t.Fatal(err)
		}
		// Tree path weight = depth(u)+depth(v)-2*depth(lca).
		a, b := u, v
		da, db := tree.Depths()[a], tree.Depths()[b]
		for da > db {
			a, da = tree.Parent(a), da-1
		}
		for db > da {
			b, db = tree.Parent(b), db-1
		}
		for a != b {
			a, b = tree.Parent(a), tree.Parent(b)
		}
		want := depth[u] + depth[v] - 2*depth[a]
		if diff := w - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("route %d->%d weight %v want %v", u, v, w, want)
		}
	}
}

func TestSchemeNoCommonCluster(t *testing.T) {
	// Two disjoint single-vertex "clusters": no route exists.
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1)
	s := clusterroute.New(1, 2)
	t0, err := graph.NewTree(0, []int{graph.NoVertex, graph.NoVertex})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := graph.NewTree(1, []int{graph.NoVertex, graph.NoVertex})
	if err != nil {
		t.Fatal(err)
	}
	s.AddTree(0, t0, graph.FromGraph(g), treeroute.BuildCentralized(t0))
	s.AddTree(1, t1, graph.FromGraph(g), treeroute.BuildCentralized(t1))
	s.AddLabelEntry(0, 0, 0, treeroute.BuildCentralized(t0))
	s.AddLabelEntry(1, 0, 1, treeroute.BuildCentralized(t1))
	if _, _, err := dataplane.Compile(s).Route(0, 1); err == nil {
		t.Fatal("expected no-common-cluster error")
	}
}

func TestSchemeLevelPreference(t *testing.T) {
	// Two clusters both containing everything; labels list level 0 first:
	// routing must use the level-0 tree.
	r := rand.New(rand.NewSource(5))
	gen, err := graph.GenerateCSR(graph.FamilyErdosRenyi, 30, r)
	if err != nil {
		t.Fatal(err)
	}
	g := gen
	treeA, err := graph.SpanningTree(g, 0, "sssp", r)
	if err != nil {
		t.Fatal(err)
	}
	treeB, err := graph.SpanningTree(g, 5, "bfs", r)
	if err != nil {
		t.Fatal(err)
	}
	s := clusterroute.New(2, g.N())
	tsA := treeroute.BuildCentralized(treeA)
	tsB := treeroute.BuildCentralized(treeB)
	s.AddTree(0, treeA, g, tsA)
	s.AddTree(5, treeB, g, tsB)
	for v := 0; v < g.N(); v++ {
		s.AddLabelEntry(v, 0, 0, tsA)
		s.AddLabelEntry(v, 1, 5, tsB)
	}
	path, _, err := dataplane.Compile(s).Route(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(path)-1, treeA.TreeDistHops(1, 2); got != want {
		t.Fatalf("route should use level-0 tree: hops %d want %d", got, want)
	}
}

func TestAddLabelEntryWithoutMembership(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	tree, err := graph.NewTree(0, []int{graph.NoVertex, 0, graph.NoVertex})
	if err != nil {
		t.Fatal(err)
	}
	s := clusterroute.New(1, 3)
	ts := treeroute.BuildCentralized(tree)
	s.AddTree(0, tree, graph.FromGraph(g), ts)
	// Vertex 2 is not in the tree: its entry must be marked out-of-cluster.
	s.AddLabelEntry(2, 0, 0, ts)
	if s.Labels[2].Entries[0].InCluster {
		t.Fatal("non-member should not be InCluster")
	}
	// Nil scheme pointer also allowed.
	s.AddLabelEntry(1, 0, 99, nil)
	if s.Labels[1].Entries[0].InCluster {
		t.Fatal("nil tree scheme should not set InCluster")
	}
}

func TestWordsAccounting(t *testing.T) {
	lab := clusterroute.Label{Vertex: 3, Entries: []clusterroute.PivotEntry{
		{Level: 0, Root: 3, InCluster: true, TreeLabel: treeroute.Label{In: 1}},
		{Level: 1, Root: 7},
	}}
	// 1 (vertex) + [2 + 1 (tree label In)] + [2] = 6.
	if got := lab.Words(); got != 6 {
		t.Fatalf("label words=%d want 6", got)
	}
	tab := clusterroute.Table{Trees: map[int]treeroute.Table{
		3: {},
		9: {},
	}}
	// 2 trees * (1 + 4) = 10.
	if got := tab.Words(); got != 10 {
		t.Fatalf("table words=%d want 10", got)
	}
}

func TestMaxAccessors(t *testing.T) {
	s, _, _ := buildSingleTreeScheme(t, 40, 6)
	if s.MaxTableWords() != 5 { // one tree: 1 + 4
		t.Fatalf("MaxTableWords=%d want 5", s.MaxTableWords())
	}
	if s.MaxLabelWords() < 4 {
		t.Fatalf("MaxLabelWords=%d", s.MaxLabelWords())
	}
	if s.MaxClustersPerVertex() != 1 {
		t.Fatalf("MaxClustersPerVertex=%d want 1", s.MaxClustersPerVertex())
	}
}
