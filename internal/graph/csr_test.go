package graph

import (
	"math/rand"
	"testing"
)

// csrEqual fails the test unless a and b are arc-for-arc identical:
// same vertex count, same edge count, same neighbor order, same weights.
func csrEqual(t *testing.T, a, b *CSR) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("shape mismatch: (n=%d,m=%d) vs (n=%d,m=%d)", a.N(), a.M(), b.N(), b.M())
	}
	for u := 0; u < a.N(); u++ {
		ta, ba := a.NeighborRange(u)
		tb, bb := b.NeighborRange(u)
		if len(ta) != len(tb) {
			t.Fatalf("vertex %d: degree %d vs %d", u, len(ta), len(tb))
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatalf("vertex %d arc %d: neighbor %d vs %d", u, i, ta[i], tb[i])
			}
			if wa, wb := a.ArcWeight(ba+i), b.ArcWeight(bb+i); wa != wb {
				t.Fatalf("vertex %d arc %d: weight %v vs %v", u, i, wa, wb)
			}
		}
	}
}

func TestCSRWeightClassTable(t *testing.T) {
	c := Grid(8, 8, 10, rand.New(rand.NewSource(3)))
	if c.WeightClasses() == 0 || c.WeightClasses() > 10 {
		t.Fatalf("expected ≤10 weight classes, got %d", c.WeightClasses())
	}
	if c.MemoryBytes() <= 0 {
		t.Fatalf("MemoryBytes = %d", c.MemoryBytes())
	}
}

// TestStreamingGeneratorsSeedStability locks the deterministic edge stream:
// the same seed must give the same CSR, and different seeds should not.
func TestStreamingGeneratorsSeedStability(t *testing.T) {
	a, err := GenerateCSR(FamilyPowerLaw, 512, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCSR(FamilyPowerLaw, 512, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	csrEqual(t, a, b)
}

// TestTopoHelpersMatchGraph checks the Topology helpers against the edge
// stream the CSR was built from (lightest weight per pair) and
// HopRadiusUpperBound against twice a BFS eccentricity.
func TestTopoHelpersMatchGraph(t *testing.T) {
	const n = 120
	type pair struct{ u, v int }
	lightest := make(map[pair]float64)
	b := NewCSRBuilder(n)
	streamErdosRenyi(n, 0.08, IntegerWeights(50), rand.New(rand.NewSource(5)), func(u, v int, w float64) {
		b.add(u, v, w)
		for _, p := range []pair{{u, v}, {v, u}} {
			if lw, ok := lightest[p]; !ok || w < lw {
				lightest[p] = w
			}
		}
	})
	c := b.Build()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			want, wantOK := lightest[pair{u, v}]
			if TopoHasEdge(c, u, v) != wantOK {
				t.Fatalf("TopoHasEdge(%d,%d) disagrees with the edge stream", u, v)
			}
			got, ok := TopoEdgeWeight(c, u, v)
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("TopoEdgeWeight(%d,%d) = (%v,%v), edge stream (%v,%v)", u, v, got, ok, want, wantOK)
			}
		}
	}
	ecc, all := BFS(c, 0).Eccentricity()
	if !all {
		t.Fatal("test graph is disconnected")
	}
	got, err := HopRadiusUpperBound(c)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*ecc {
		t.Fatalf("HopRadiusUpperBound = %d, 2·ecc(0) = %d", got, 2*ecc)
	}
}

// TestNewTreeCompactMatchesNewTree checks that the compact constructor and
// the host-sized constructor agree on every accessor for the same tree.
func TestNewTreeCompactMatchesNewTree(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	c := ErdosRenyi(100, 0.06, IntegerWeights(10), r)
	tr, err := SpanningTree(c, 3, "sssp", r)
	if err != nil {
		t.Fatal(err)
	}
	members := tr.Members()
	verts := make([]int32, len(members))
	par := make([]int32, len(members))
	for i, v := range members {
		verts[i] = int32(v)
		par[i] = int32(tr.Parent(v))
	}
	ct, err := NewTreeCompact(tr.Root, tr.HostSize(), verts, par)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Size() != tr.Size() || ct.HostSize() != tr.HostSize() {
		t.Fatalf("shape mismatch")
	}
	for v := 0; v < c.N(); v++ {
		if ct.Member(v) != tr.Member(v) || ct.Parent(v) != tr.Parent(v) {
			t.Fatalf("vertex %d: member/parent disagree", v)
		}
		a, b := ct.Children(v), tr.Children(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d: children %v vs %v", v, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d: children %v vs %v", v, a, b)
			}
		}
	}
	for i, v := range tr.PreOrder() {
		if ct.PreOrder()[i] != v {
			t.Fatalf("preorder slot %d differs", i)
		}
	}
	uw, tw := ct.UpWeights(c), tr.UpWeights(c)
	for i, v := range members {
		if uw[i] != tw[i] {
			t.Fatalf("UpWeights[%d] (vertex %d): compact %v, host-sized %v", i, v, uw[i], tw[i])
		}
		if ct.MemberIndex(v) != i || ct.MemberAt(i) != v {
			t.Fatalf("MemberIndex/MemberAt inconsistent at slot %d", i)
		}
	}
}

func TestNewTreeCompactValidation(t *testing.T) {
	cases := []struct {
		name  string
		root  int
		hostN int
		verts []int32
		par   []int32
	}{
		{"root missing", 5, 10, []int32{1, 2}, []int32{2, 1}},
		{"not ascending", 1, 10, []int32{2, 1}, []int32{NoVertex, 2}},
		{"detached", 0, 10, []int32{0, 3}, []int32{NoVertex, 7}},
		{"cycle", 0, 10, []int32{0, 3, 4}, []int32{NoVertex, 4, 3}},
		{"root has parent", 0, 10, []int32{0, 1}, []int32{1, 0}},
		{"out of range member", 0, 3, []int32{0, 5}, []int32{NoVertex, 0}},
	}
	for _, tc := range cases {
		if _, err := NewTreeCompact(tc.root, tc.hostN, tc.verts, tc.par); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestThawRoundTrip pins Thaw: building a thawed CSR gives it back bit for
// bit, and edges added after the thaw land where they would have in a
// single pass over the whole stream.
func TestThawRoundTrip(t *testing.T) {
	for _, f := range goldenFamilies {
		c, err := GenerateCSR(f, 200, rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatal(err)
		}
		csrIdentical(t, c.Thaw().Build(), c)
	}
	extend := func(b *CSRBuilder) *CSR {
		for _, e := range []edge{{3, 7, 0.5}, {7, 3, 2}} {
			if err := b.AddEdge(e.u, e.v, e.w); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.AddEdge(b.AddVertex(), 0, 1); err != nil {
			t.Fatal(err)
		}
		return b.Build()
	}
	stream := func(b *CSRBuilder) {
		streamErdosRenyi(50, 0.1, IntegerWeights(10), rand.New(rand.NewSource(2)), b.add)
	}
	whole := NewCSRBuilder(50)
	stream(whole)
	prefix := NewCSRBuilder(50)
	stream(prefix)
	csrIdentical(t, extend(prefix.Build().Thaw()), extend(whole))
}
