package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildSampleTree returns the tree
//
//	     0
//	   /   \
//	  1     2
//	 / \     \
//	3   4     5
//	     \
//	      6
func buildSampleTree(t *testing.T) *Tree {
	t.Helper()
	parent := []int{NoVertex, 0, 0, 1, 1, 2, 4}
	tr, err := NewTree(0, parent)
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	return tr
}

func TestTreeBasics(t *testing.T) {
	tr := buildSampleTree(t)
	if tr.Size() != 7 || tr.Root != 0 {
		t.Fatalf("Size=%d Root=%d", tr.Size(), tr.Root)
	}
	if tr.Parent(3) != 1 || tr.Parent(0) != NoVertex {
		t.Fatal("parents wrong")
	}
	if ch := tr.Children(1); len(ch) != 2 || ch[0] != 3 || ch[1] != 4 {
		t.Fatalf("Children(1)=%v", ch)
	}
	if !tr.Member(6) || tr.Member(-1) {
		t.Fatal("membership wrong")
	}
}

func TestTreeValidationErrors(t *testing.T) {
	tests := []struct {
		name   string
		root   int
		parent []int
	}{
		{"root out of range", 9, []int{NoVertex, 0}},
		{"root has parent", 0, []int{1, NoVertex}},
		{"cycle", 0, []int{NoVertex, 2, 1}},
		{"parent out of range", 0, []int{NoVertex, 99}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewTree(tt.root, tt.parent); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestTreeDepthsAndHeight(t *testing.T) {
	tr := buildSampleTree(t)
	d := tr.Depths()
	want := []int{0, 1, 1, 2, 2, 2, 3}
	for v := range want {
		if d[v] != want[v] {
			t.Fatalf("Depths[%d]=%d want %d", v, d[v], want[v])
		}
	}
	if tr.Height() != 3 {
		t.Fatalf("Height=%d want 3", tr.Height())
	}
}

func TestSubtreeSizes(t *testing.T) {
	tr := buildSampleTree(t) // spans 0..6, so member slot v is vertex v
	s := tr.SubtreeSizes()
	want := []int{7, 4, 2, 1, 2, 1, 1}
	for v := range want {
		if s[v] != want[v] {
			t.Fatalf("SubtreeSizes[%d]=%d want %d", v, s[v], want[v])
		}
	}
}

func TestHeavyChildren(t *testing.T) {
	tr := buildSampleTree(t) // spans 0..6, so member slot v is vertex v
	h := tr.HeavyChildren()
	if h[0] != 1 { // subtree(1)=4 > subtree(2)=2
		t.Fatalf("heavy(0)=%d want 1", h[0])
	}
	if h[1] != 4 { // subtree(4)=2 > subtree(3)=1
		t.Fatalf("heavy(1)=%d want 4", h[1])
	}
	if h[3] != NoVertex {
		t.Fatalf("heavy(3)=%d want none", h[3])
	}
}

func TestPreAndPostOrder(t *testing.T) {
	tr := buildSampleTree(t)
	pre := tr.PreOrder()
	if len(pre) != 7 || pre[0] != 0 {
		t.Fatalf("PreOrder=%v", pre)
	}
	seenAt := make(map[int]int)
	for i, v := range pre {
		seenAt[v] = i
	}
	for _, v := range pre {
		if p := tr.Parent(v); p != NoVertex && seenAt[p] > seenAt[v] {
			t.Fatalf("preorder: parent %d after child %d", p, v)
		}
	}
	// SubtreeSizes folds children before parents along postOrderSlots.
	seenAt = make(map[int]int)
	for i, s := range tr.postOrderSlots() {
		seenAt[tr.MemberAt(int(s))] = i
	}
	if len(seenAt) != 7 {
		t.Fatalf("postOrderSlots covers %d members, want 7", len(seenAt))
	}
	for _, v := range pre {
		if p := tr.Parent(v); p != NoVertex && seenAt[p] < seenAt[v] {
			t.Fatalf("postorder: parent %d before child %d", p, v)
		}
	}
}

func TestPathToRootAndTreeDist(t *testing.T) {
	tr := buildSampleTree(t)
	p := tr.PathToRoot(6)
	want := []int{6, 4, 1, 0}
	if len(p) != len(want) {
		t.Fatalf("PathToRoot(6)=%v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("PathToRoot(6)=%v want %v", p, want)
		}
	}
	if got := tr.TreeDistHops(6, 5); got != 5 { // 6-4-1-0-2-5
		t.Fatalf("TreeDistHops(6,5)=%d want 5", got)
	}
	if got := tr.TreeDistHops(3, 3); got != 0 {
		t.Fatalf("TreeDistHops(3,3)=%d want 0", got)
	}
	if got := tr.TreeDistHops(0, 6); got != 3 {
		t.Fatalf("TreeDistHops(0,6)=%d want 3", got)
	}
}

func TestSpanningTreeKinds(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	g := ErdosRenyi(80, 0.08, IntegerWeights(10), r)
	for _, kind := range []string{"bfs", "sssp", "dfs"} {
		t.Run(kind, func(t *testing.T) {
			tr, err := SpanningTree(g, 0, kind, r)
			if err != nil {
				t.Fatalf("SpanningTree: %v", err)
			}
			if tr.Size() != g.N() {
				t.Fatalf("Size=%d want %d", tr.Size(), g.N())
			}
			// Every tree edge must exist in the host graph.
			for _, v := range tr.Members() {
				if p := tr.Parent(v); p != NoVertex && !TopoHasEdge(g, v, p) {
					t.Fatalf("tree edge {%d,%d} not in graph", v, p)
				}
			}
		})
	}
	if _, err := SpanningTree(g, 0, "bogus", r); err == nil {
		t.Fatal("unknown kind should error")
	}
	for _, root := range []int{-1, g.N()} {
		for _, kind := range []string{"bfs", "sssp", "dfs"} {
			if _, err := SpanningTree(g, root, kind, r); err == nil {
				t.Fatalf("%s spanning tree rooted at %d should error", kind, root)
			}
		}
	}
}

func TestSpanningTreeDisconnected(t *testing.T) {
	g := fromEdges(t, 4, edge{0, 1, 1}, edge{2, 3, 1})
	if _, err := SpanningTree(g, 0, "dfs", rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("dfs spanning tree of disconnected graph should error")
	}
}

func TestTreeWeights(t *testing.T) {
	g := fromEdges(t, 3, edge{0, 1, 5}, edge{1, 2, 7})
	tr, err := NewTree(0, []int{NoVertex, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	w := tr.UpWeights(g)
	if w[0] != 0 || w[1] != 5 || w[2] != 7 {
		t.Fatalf("UpWeights=%v", w)
	}
}

// Property: heavy-child decomposition guarantees at most log2(n) light edges
// on any root-to-vertex path.
func TestLightEdgeBoundProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%200) + 2
		r := rand.New(rand.NewSource(seed))
		g := RandomTree(n, UnitWeights, r)
		tr, err := SpanningTree(g, 0, "dfs", r)
		if err != nil {
			return false
		}
		heavy := tr.HeavyChildren()
		maxLight := 0
		for _, v := range tr.Members() {
			light := 0
			for x := v; x != tr.Root; x = tr.Parent(x) {
				if heavy[tr.MemberIndex(tr.Parent(x))] != x {
					light++
				}
			}
			if light > maxLight {
				maxLight = light
			}
		}
		bound := 0
		for 1<<bound < n {
			bound++
		}
		return maxLight <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the root's subtree size (by member slot) is the tree size, and
// sizes are consistent (parent size = 1 + sum of child sizes).
func TestSubtreeSizesProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%150) + 2
		r := rand.New(rand.NewSource(seed))
		g := RandomTree(n, UnitWeights, r)
		tr, err := SpanningTree(g, 0, "bfs", r)
		if err != nil {
			return false
		}
		s := tr.SubtreeSizes()
		if s[tr.MemberIndex(tr.Root)] != n {
			return false
		}
		for _, v := range tr.Members() {
			total := 1
			for _, c := range tr.Children(v) {
				total += s[tr.MemberIndex(c)]
			}
			if total != s[tr.MemberIndex(v)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
