package treeroute_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"lowmemroute/internal/clusterroute"
	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/treeroute"
)

// compiled compiles ts as a one-cluster scheme and returns its table's
// walk, in VerifyExact's route shape. A walk reads no weights, so the host
// is the tree itself with unit links.
func compiled(ts *treeroute.Scheme) func(src, dst int, path []int) ([]int, error) {
	tr := ts.Tree
	b := graph.NewCSRBuilder(tr.HostSize())
	for i := 0; i < tr.Size(); i++ {
		if p := tr.ParentAt(i); p != graph.NoVertex {
			if err := b.AddEdge(tr.MemberAt(i), p, 1); err != nil {
				return func(int, int, []int) ([]int, error) { return nil, err }
			}
		}
	}
	tab := dataplane.Compile(clusterroute.FromTree(ts, b.Build()))
	return func(src, dst int, path []int) ([]int, error) {
		path, _, err := tab.RouteAppend(src, dst, path)
		return path, err
	}
}

func sampleTree(t *testing.T) *graph.Tree {
	t.Helper()
	//        0
	//      /   \
	//     1     2
	//    / \     \
	//   3   4     5
	//        \
	//         6
	tr, err := graph.NewTree(0, []int{graph.NoVertex, 0, 0, 1, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCentralizedSampleTreeExact(t *testing.T) {
	tr := sampleTree(t)
	s := treeroute.BuildCentralized(tr)
	if err := treeroute.VerifyExact(compiled(s), tr, treeroute.AllPairs(tr)); err != nil {
		t.Fatal(err)
	}
}

func TestCentralizedTableIsO1(t *testing.T) {
	tr := sampleTree(t)
	s := treeroute.BuildCentralized(tr)
	if got := s.MaxTableWords(); got != 4 {
		t.Fatalf("MaxTableWords=%d want 4", got)
	}
}

func TestCentralizedLabelBound(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 17, 100, 500} {
		g := graph.RandomTree(n, graph.UnitWeights, r)
		tr, err := graph.SpanningTree(g, 0, "dfs", r)
		if err != nil {
			t.Fatal(err)
		}
		s := treeroute.BuildCentralized(tr)
		// Label = 1 + 2*lightEdges, lightEdges <= log2 n.
		bound := 1 + 2*int(math.Ceil(math.Log2(float64(n))))
		if got := s.MaxLabelWords(); got > bound {
			t.Fatalf("n=%d: MaxLabelWords=%d exceeds bound %d", n, got, bound)
		}
	}
}

func TestCentralizedPathTreeExact(t *testing.T) {
	// A path is the worst case for naive schemes: only heavy edges.
	r := rand.New(rand.NewSource(2))
	g := graph.Path(60, graph.UnitWeights, r)
	tr, err := graph.SpanningTree(g, 0, "bfs", r)
	if err != nil {
		t.Fatal(err)
	}
	s := treeroute.BuildCentralized(tr)
	if err := treeroute.VerifyExact(compiled(s), tr, treeroute.AllPairs(tr)); err != nil {
		t.Fatal(err)
	}
	// On a path rooted at an end there are no light edges at all.
	if got := s.MaxLabelWords(); got != 1 {
		t.Fatalf("path label words=%d want 1", got)
	}
}

func TestCentralizedStarTreeExact(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := graph.Star(40, graph.UnitWeights, r)
	tr, err := graph.SpanningTree(g, 0, "bfs", r)
	if err != nil {
		t.Fatal(err)
	}
	s := treeroute.BuildCentralized(tr)
	if err := treeroute.VerifyExact(compiled(s), tr, treeroute.AllPairs(tr)); err != nil {
		t.Fatal(err)
	}
	// Star: every leaf but the heavy one is reached via one light edge.
	if got := s.MaxLabelWords(); got != 3 {
		t.Fatalf("star label words=%d want 3", got)
	}
}

func TestCentralizedSingleVertex(t *testing.T) {
	tr, err := graph.NewTree(0, []int{graph.NoVertex})
	if err != nil {
		t.Fatal(err)
	}
	s := treeroute.BuildCentralized(tr)
	path, err := compiled(s)(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 1 || path[0] != 0 {
		t.Fatalf("path=%v", path)
	}
}

func TestCentralizedSubsetTree(t *testing.T) {
	// Tree over a subset of host ids {2, 5, 7, 9} in a host of size 12.
	parent := make([]int, 12)
	for i := range parent {
		parent[i] = graph.NoVertex
	}
	parent[5] = 2
	parent[7] = 2
	parent[9] = 5
	tr, err := graph.NewTree(2, parent)
	if err != nil {
		t.Fatal(err)
	}
	s := treeroute.BuildCentralized(tr)
	if err := treeroute.VerifyExact(compiled(s), tr, treeroute.AllPairs(tr)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Table(0); ok {
		t.Fatal("non-member should have no table")
	}
}

func TestRouteErrors(t *testing.T) {
	tr := sampleTree(t)
	s := treeroute.BuildCentralized(tr)
	if _, err := compiled(s)(0, 99, nil); err == nil {
		t.Fatal("routing to unlabeled destination should fail")
	}
	// Corrupt the scheme: break vertex 4's interval to force a loop.
	tab := &s.Tables[tr.MemberIndex(4)]
	tab.In, tab.Out = 999, 999
	if _, err := compiled(s)(3, 6, nil); err == nil {
		t.Fatal("corrupted scheme should be detected")
	}
}

func TestNextHopRule(t *testing.T) {
	tr := sampleTree(t)
	s := treeroute.BuildCentralized(tr)
	tests := []struct {
		name     string
		at, dst  int
		wantNext int
	}{
		{"descend heavy", 0, 6, 1},     // 1 is the heavy child of 0
		{"descend light", 1, 3, 3},     // (1,3) is light
		{"go up", 3, 6, 1},             // target outside subtree(3)
		{"up through root", 5, 3, 2},   // 5 -> 2 -> 0 -> 1 -> 3
		{"deliver next door", 4, 6, 6}, // direct child
		{"up from deep leaf", 6, 0, 4}, // climbing
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tab, _ := s.Table(tt.at)
			lab, _ := s.Label(tt.dst)
			next, arrived := treeroute.NextHop(tt.at, tab, lab)
			if arrived {
				t.Fatal("should not have arrived")
			}
			if next != tt.wantNext {
				t.Fatalf("next=%d want %d", next, tt.wantNext)
			}
		})
	}
	tab, _ := s.Table(4)
	lab, _ := s.Label(4)
	if _, arrived := treeroute.NextHop(4, tab, lab); !arrived {
		t.Fatal("self-route should arrive immediately")
	}
}

// Property: the centralized scheme routes exactly on random trees of random
// shapes and random roots.
func TestCentralizedExactProperty(t *testing.T) {
	f := func(seed int64, sz uint8, rootRaw uint8) bool {
		n := int(sz%120) + 2
		r := rand.New(rand.NewSource(seed))
		g := graph.RandomTree(n, graph.UnitWeights, r)
		root := int(rootRaw) % n
		tr, err := graph.SpanningTree(g, root, "dfs", r)
		if err != nil {
			return false
		}
		s := treeroute.BuildCentralized(tr)
		return treeroute.VerifyExact(compiled(s), tr, treeroute.SamplePairs(tr, 40, r)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: DFS intervals form a laminar family consistent with the tree.
func TestCentralizedIntervalProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%100) + 2
		r := rand.New(rand.NewSource(seed))
		g := graph.RandomTree(n, graph.UnitWeights, r)
		tr, err := graph.SpanningTree(g, 0, "bfs", r)
		if err != nil {
			return false
		}
		s := treeroute.BuildCentralized(tr)
		for _, v := range tr.Members() {
			tab, _ := s.Table(v)
			if p := tr.Parent(v); p != graph.NoVertex {
				pt, _ := s.Table(p)
				if tab.In <= pt.In || tab.Out > pt.Out {
					return false
				}
			}
			if tab.Out-tab.In+1 != tr.SubtreeSizes()[tr.MemberIndex(v)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCentralizedAllocIndependentOfHost pins that BuildCentralized's
// scratch is member-indexed: the same 8-member tree allocates the same
// bytes in a 64-vertex host as in a 4,096-vertex one.
func TestCentralizedAllocIndependentOfHost(t *testing.T) {
	bytes := func(hostN int) uint64 {
		verts := []int32{3, 5, 10, 17, 20, 33, 40, 50}
		par := []int32{graph.NoVertex, 3, 3, 5, 5, 10, 17, 17}
		tr, err := graph.NewTreeCompact(3, hostN, verts, par)
		if err != nil {
			t.Fatal(err)
		}
		var ms runtime.MemStats
		best := uint64(math.MaxUint64)
		for trial := 0; trial < 3; trial++ {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			for i := 0; i < 10; i++ {
				treeroute.BuildCentralized(tr)
			}
			runtime.ReadMemStats(&ms)
			best = min(best, (ms.TotalAlloc-before)/10)
		}
		return best
	}
	if small, large := bytes(64), bytes(4096); small != large {
		t.Fatalf("BuildCentralized allocated %d bytes in a 64-vertex host, %d in a 4,096-vertex one", small, large)
	}
}
