package clusterroute_test

import (
	"math/rand"
	"slices"
	"testing"

	"lowmemroute/internal/clusterroute"
	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/treeroute"
)

// buildSingleTreeScheme wraps one spanning tree's scheme as a one-cluster
// scheme: routing should then be exact tree routing.
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
	return clusterroute.FromTree(treeroute.BuildCentralized(tree), g), g, tree
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
	g := graph.Path(2, graph.UnitWeights, nil)
	s := clusterroute.New(1, 2)
	t0, err := graph.NewTree(0, []int{graph.NoVertex, graph.NoVertex})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := graph.NewTree(1, []int{graph.NoVertex, graph.NoVertex})
	if err != nil {
		t.Fatal(err)
	}
	s.AddTree(treeroute.BuildCentralized(t0), g)
	s.AddTree(treeroute.BuildCentralized(t1), g)
	s.AddLabelEntry(0, 0, 0)
	s.AddLabelEntry(1, 0, 1)
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
	s.AddTree(treeroute.BuildCentralized(treeA), g)
	s.AddTree(treeroute.BuildCentralized(treeB), g)
	for v := 0; v < g.N(); v++ {
		s.AddLabelEntry(v, 0, 0)
		s.AddLabelEntry(v, 1, 5)
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
	g := graph.Path(3, graph.UnitWeights, nil)
	tree, err := graph.NewTree(0, []int{graph.NoVertex, 0, graph.NoVertex})
	if err != nil {
		t.Fatal(err)
	}
	s := clusterroute.New(1, 3)
	s.AddTree(treeroute.BuildCentralized(tree), g)
	// Vertex 2 is not in the tree: its entry must be marked out-of-cluster.
	s.AddLabelEntry(2, 0, 0)
	if s.Labels[2].Entries[0].InCluster {
		t.Fatal("non-member should not be InCluster")
	}
	// A root without a cluster is allowed too.
	s.AddLabelEntry(1, 0, 2)
	if s.Labels[1].Entries[0].InCluster {
		t.Fatal("a root without a cluster should not set InCluster")
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
	tab := clusterroute.Table{{Center: 3}, {Center: 9}}
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

// TestTableView checks a vertex's table gathers its clusters' tree tables
// in ascending center order, whatever order the clusters were added in,
// and that its size agrees with TableWords.
func TestTableView(t *testing.T) {
	g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, 30, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	s := clusterroute.New(1, g.N())
	roots := []int{9, 2, 17}
	var schemes []*treeroute.Scheme
	for _, root := range roots {
		tree, err := graph.SpanningTree(g, root, "bfs", rand.New(rand.NewSource(int64(root))))
		if err != nil {
			t.Fatal(err)
		}
		ts := treeroute.BuildCentralized(tree)
		schemes = append(schemes, ts)
		s.AddTree(ts, g)
	}
	for v := 0; v < g.N(); v++ {
		tab := s.Table(v)
		if len(tab) != 3 || tab[0].Center != 2 || tab[1].Center != 9 || tab[2].Center != 17 {
			t.Fatalf("table of %d: %+v", v, tab)
		}
		for _, e := range tab {
			want, _ := schemes[slices.Index(roots, e.Center)].Table(v)
			if e.Tree != want {
				t.Fatalf("table of %d, center %d: %+v want %+v", v, e.Center, e.Tree, want)
			}
		}
		if got, want := s.TableWords(v), tab.Words(); got != want {
			t.Fatalf("TableWords(%d)=%d, view has %d", v, got, want)
		}
	}
	if s.Cluster(5) != nil || s.Cluster(17).Tree != schemes[2].Tree {
		t.Fatal("Cluster looks up the wrong cluster")
	}
}

// checkHierarchy fails t unless levels is a nested k-level hierarchy over n
// vertices with A_0 = V and a nonempty top, and topOf[v] is the highest
// level containing v.
func checkHierarchy(t *testing.T, n, k int, levels [][]int, topOf []int) {
	t.Helper()
	if len(levels) != k || len(topOf) != n {
		t.Fatalf("n=%d k=%d: %d levels, %d topOf entries", n, k, len(levels), len(topOf))
	}
	if len(levels[0]) != n {
		t.Fatalf("n=%d k=%d: |A_0| = %d", n, k, len(levels[0]))
	}
	if len(levels[k-1]) == 0 {
		t.Fatalf("n=%d k=%d: empty top level", n, k)
	}
	top := make([]int, n)
	for i, level := range levels {
		for _, v := range level {
			if i > 0 && !slices.Contains(levels[i-1], v) {
				t.Fatalf("n=%d k=%d: A_%d vertex %d not in A_%d", n, k, i, v, i-1)
			}
			top[v] = i
		}
	}
	if !slices.Equal(top, topOf) {
		t.Fatalf("n=%d k=%d: topOf %v, want %v", n, k, topOf, top)
	}
}

func TestSampleHierarchy(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 200} {
		for k := 1; k <= 5; k++ {
			for seed := int64(0); seed < 40; seed++ {
				levels, topOf := clusterroute.SampleHierarchy(n, k, rand.New(rand.NewSource(seed)))
				checkHierarchy(t, n, k, levels, topOf)
			}
		}
	}
}

func TestSampleHierarchyReseedsBelowEmptyLevel(t *testing.T) {
	// At n=4, k=3, seed 3 both A_1 and A_2 sample empty: the top is
	// reseeded from A_0 and A_1 refilled from it.
	levels, topOf := clusterroute.SampleHierarchy(4, 3, rand.New(rand.NewSource(3)))
	checkHierarchy(t, 4, 3, levels, topOf)
	if len(levels[2]) != 1 || !slices.Equal(levels[1], levels[2]) {
		t.Fatalf("levels %v: want A_1 = A_2 = one reseeded vertex", levels)
	}
}
