package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// edge is one {u, v} edge of weight w for fromEdges.
type edge struct {
	u, v int
	w    float64
}

// fromEdges builds an n-vertex CSR from an edge stream, failing t on an
// invalid edge.
func fromEdges(t testing.TB, n int, es ...edge) *CSR {
	t.Helper()
	b := NewCSRBuilder(n)
	for _, e := range es {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestNewAndAddEdge(t *testing.T) {
	b := NewCSRBuilder(4)
	if b.N() != 4 || b.M() != 0 {
		t.Fatalf("NewCSRBuilder(4): N=%d M=%d", b.N(), b.M())
	}
	if err := b.AddEdge(0, 1, 2.5); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if b.M() != 1 {
		t.Fatalf("M=%d, want 1", b.M())
	}
	g := b.Build()
	if !TopoHasEdge(g, 0, 1) || !TopoHasEdge(g, 1, 0) {
		t.Fatal("edge should be symmetric")
	}
	if TopoHasEdge(g, 0, 2) {
		t.Fatal("unexpected edge {0,2}")
	}
	w, ok := TopoEdgeWeight(g, 1, 0)
	if !ok || w != 2.5 {
		t.Fatalf("TopoEdgeWeight = %v,%v want 2.5,true", w, ok)
	}
	if NewCSRBuilder(-1).N() != 0 {
		t.Fatal("a negative size should clamp to 0")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	b := NewCSRBuilder(3)
	tests := []struct {
		name    string
		u, v    int
		w       float64
		wantErr string
	}{
		{"valid", 0, 1, 1, ""},
		{"self loop", 1, 1, 1, "graph: self loop at 1"},
		{"u out of range", -1, 0, 1, "graph: edge {-1,0} out of range [0,3)"},
		{"v out of range", 0, 3, 1, "graph: edge {0,3} out of range [0,3)"},
		{"zero weight", 0, 2, 0, "graph: invalid weight 0 on {0,2}"},
		{"negative weight", 0, 2, -3, "graph: invalid weight -3 on {0,2}"},
		{"nan weight", 0, 2, math.NaN(), "graph: invalid weight NaN on {0,2}"},
		{"inf weight", 0, 2, math.Inf(1), "graph: invalid weight +Inf on {0,2}"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := ""
			if err := b.AddEdge(tt.u, tt.v, tt.w); err != nil {
				got = err.Error()
			}
			if got != tt.wantErr {
				t.Fatalf("AddEdge(%d,%d,%v) err=%q want %q", tt.u, tt.v, tt.w, got, tt.wantErr)
			}
		})
	}
	if b.M() != 1 {
		t.Fatalf("M=%d after one valid edge", b.M())
	}
}

func TestAddVertex(t *testing.T) {
	b := NewCSRBuilder(0)
	if got := b.AddVertex(); got != 0 {
		t.Fatalf("first AddVertex = %d, want 0", got)
	}
	if got := b.AddVertex(); got != 1 {
		t.Fatalf("second AddVertex = %d, want 1", got)
	}
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatalf("AddEdge after AddVertex: %v", err)
	}
	if g := b.Build(); g.N() != 2 || g.M() != 1 {
		t.Fatalf("built N=%d M=%d, want 2, 1", g.N(), g.M())
	}
}

// TestEdgesSortedAndComplete pins Quantize's edge stream: every edge once,
// in ascending (u, v) order, whatever order the input added them in.
func TestEdgesSortedAndComplete(t *testing.T) {
	g := fromEdges(t, 4, edge{2, 3, 1}, edge{0, 1, 2}, edge{0, 3, 3})
	q := g.Quantize(1) // weights 1, 2, 3 round up to 1, 2, 4
	want := fromEdges(t, 4, edge{0, 1, 2}, edge{0, 3, 4}, edge{2, 3, 1})
	if !reflect.DeepEqual(q, want) {
		t.Fatalf("Quantize(1) streamed %v, want %v", q, want)
	}
}

// TestCloneIndependence pins that a thawed builder is a copy: edges added
// to it leave the CSR it was thawed from unchanged.
func TestCloneIndependence(t *testing.T) {
	g := fromEdges(t, 3, edge{0, 1, 1})
	b := g.Thaw()
	if err := b.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	c := b.Build()
	if g.M() != 1 || c.M() != 2 || g.Degree(1) != 1 || c.Degree(1) != 2 {
		t.Fatalf("thaw not independent: g.M=%d c.M=%d", g.M(), c.M())
	}
}

func TestValidate(t *testing.T) {
	g := ErdosRenyi(50, 0.1, UnitWeights, rand.New(rand.NewSource(1)))
	if err := csrValid(g); err != nil {
		t.Fatalf("csrValid on generator output: %v", err)
	}
	// Corrupt: redirect one of vertex 0's arcs, leaving its twin behind.
	to, _ := g.NeighborRange(0)
	to[0] = (to[0] + 1) % int32(g.N())
	if err := csrValid(g); err == nil {
		t.Fatal("csrValid should catch asymmetric adjacency")
	}
}

func TestWeightStats(t *testing.T) {
	g := fromEdges(t, 3, edge{0, 1, 2}, edge{1, 2, 8})
	if got := AspectRatio(g); got != 4 {
		t.Fatalf("AspectRatio=%v want 4", got)
	}
	if got := AspectRatio(NewCSRBuilder(3).Build()); got != 1 {
		t.Fatalf("edgeless AspectRatio=%v want 1", got)
	}
}

func TestDijkstraLine(t *testing.T) {
	g := Path(5, UnitWeights, rand.New(rand.NewSource(1)))
	res := Dijkstra(g, 0)
	for v := 0; v < 5; v++ {
		if res.Dist[v] != float64(v) {
			t.Fatalf("Dist[%d]=%v want %d", v, res.Dist[v], v)
		}
		if res.Hops[v] != v {
			t.Fatalf("Hops[%d]=%d want %d", v, res.Hops[v], v)
		}
	}
	path := res.PathTo(4)
	want := []int{0, 1, 2, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("PathTo(4)=%v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("PathTo(4)=%v want %v", path, want)
		}
	}
}

func TestDijkstraPrefersLightDetour(t *testing.T) {
	// 0-2 direct weight 10, detour 0-1-2 weight 2+3=5.
	g := fromEdges(t, 3, edge{0, 2, 10}, edge{0, 1, 2}, edge{1, 2, 3})
	res := Dijkstra(g, 0)
	if res.Dist[2] != 5 {
		t.Fatalf("Dist[2]=%v want 5", res.Dist[2])
	}
	if res.Parent[2] != 1 {
		t.Fatalf("Parent[2]=%d want 1", res.Parent[2])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := fromEdges(t, 3, edge{0, 1, 1})
	res := Dijkstra(g, 0)
	if res.Dist[2] != Infinity || res.Parent[2] != NoVertex || res.Hops[2] != -1 {
		t.Fatalf("unreachable vertex: %v %v %v", res.Dist[2], res.Parent[2], res.Hops[2])
	}
	if res.PathTo(2) != nil {
		t.Fatal("PathTo unreachable should be nil")
	}
}

func TestBoundedBellmanFordRespectsHopBound(t *testing.T) {
	// Cheap long path vs expensive direct edge: with t=1 only the direct
	// edge is usable; with t=4 the cheap path wins.
	g := fromEdges(t, 5, edge{0, 4, 10}, edge{0, 1, 1}, edge{1, 2, 1}, edge{2, 3, 1}, edge{3, 4, 1})
	if d := BoundedBellmanFord(g, 0, 1).Dist[4]; d != 10 {
		t.Fatalf("t=1: Dist[4]=%v want 10", d)
	}
	if d := BoundedBellmanFord(g, 0, 4).Dist[4]; d != 4 {
		t.Fatalf("t=4: Dist[4]=%v want 4", d)
	}
	if d := BoundedBellmanFord(g, 0, 2).Dist[4]; d != 10 {
		t.Fatalf("t=2: Dist[4]=%v want 10", d)
	}
}

func TestBoundedBellmanFordMatchesDijkstraWhenUnbounded(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := ErdosRenyi(80, 0.08, IntegerWeights(20), r)
	exact := Dijkstra(g, 3)
	bf := BoundedBellmanFord(g, 3, g.N())
	for v := 0; v < g.N(); v++ {
		if bf.Dist[v] != exact.Dist[v] {
			t.Fatalf("vertex %d: BF=%v Dijkstra=%v", v, bf.Dist[v], exact.Dist[v])
		}
	}
}

func TestBoundedBellmanFordMulti(t *testing.T) {
	g := Path(6, UnitWeights, rand.New(rand.NewSource(1)))
	res := BoundedBellmanFordMulti(g, []int{0, 5}, []float64{0, 0.5}, 10)
	// Vertex 2 is 2 from source 0 and 3+0.5 from source 5.
	if res.Dist[2] != 2 {
		t.Fatalf("Dist[2]=%v want 2", res.Dist[2])
	}
	// Vertex 4 is 4 from source 0 and 1.5 from source 5 (offset 0.5).
	if res.Dist[4] != 1.5 {
		t.Fatalf("Dist[4]=%v want 1.5", res.Dist[4])
	}
}

func TestBFSAndHopDiameter(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := Grid(4, 5, 1, r)
	d, err := HopDiameter(g)
	if err != nil {
		t.Fatalf("HopDiameter: %v", err)
	}
	if d != 4-1+5-1 {
		t.Fatalf("grid diameter=%d want 7", d)
	}
	ub, err := HopRadiusUpperBound(g)
	if err != nil {
		t.Fatalf("HopRadiusUpperBound: %v", err)
	}
	if ub < d {
		t.Fatalf("upper bound %d below diameter %d", ub, d)
	}
}

func TestHopDiameterDisconnected(t *testing.T) {
	g := fromEdges(t, 4, edge{0, 1, 1}, edge{2, 3, 1})
	if _, err := HopDiameter(g); err == nil {
		t.Fatal("HopDiameter on disconnected graph should error")
	}
	if Connected(g) {
		t.Fatal("Connected should be false")
	}
}

func TestAllPairsSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := ErdosRenyi(40, 0.15, IntegerWeights(9), r)
	ap := AllPairs(g)
	for u := 0; u < g.N(); u++ {
		if ap[u][u] != 0 {
			t.Fatalf("d(%d,%d)=%v", u, u, ap[u][u])
		}
		for v := 0; v < g.N(); v++ {
			if ap[u][v] != ap[v][u] {
				t.Fatalf("asymmetric d(%d,%d)", u, v)
			}
		}
	}
}
