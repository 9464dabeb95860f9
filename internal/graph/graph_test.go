package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewAndAddEdge(t *testing.T) {
	g := New(4)
	if g.N() != 4 || g.M() != 0 {
		t.Fatalf("New(4): N=%d M=%d", g.N(), g.M())
	}
	if err := g.AddEdge(0, 1, 2.5); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if g.M() != 1 {
		t.Fatalf("M=%d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge should be symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("unexpected edge {0,2}")
	}
	w, ok := TopoEdgeWeight(FromGraph(g), 1, 0)
	if !ok || w != 2.5 {
		t.Fatalf("TopoEdgeWeight = %v,%v want 2.5,true", w, ok)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	tests := []struct {
		name    string
		u, v    int
		w       float64
		wantErr bool
	}{
		{"valid", 0, 1, 1, false},
		{"self loop", 1, 1, 1, true},
		{"u out of range", -1, 0, 1, true},
		{"v out of range", 0, 3, 1, true},
		{"zero weight", 0, 2, 0, true},
		{"negative weight", 0, 2, -3, true},
		{"nan weight", 0, 2, math.NaN(), true},
		{"inf weight", 0, 2, math.Inf(1), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := g.AddEdge(tt.u, tt.v, tt.w)
			if (err != nil) != tt.wantErr {
				t.Fatalf("AddEdge(%d,%d,%v) err=%v wantErr=%v", tt.u, tt.v, tt.w, err, tt.wantErr)
			}
		})
	}
}

func TestAddVertex(t *testing.T) {
	g := New(0)
	if got := g.AddVertex(); got != 0 {
		t.Fatalf("first AddVertex = %d, want 0", got)
	}
	if got := g.AddVertex(); got != 1 {
		t.Fatalf("second AddVertex = %d, want 1", got)
	}
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatalf("AddEdge after AddVertex: %v", err)
	}
}

func TestEdgesSortedAndComplete(t *testing.T) {
	g := New(4)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(0, 3, 3)
	es := g.Edges()
	want := []Edge{{0, 1, 2}, {0, 3, 3}, {2, 3, 1}}
	if len(es) != len(want) {
		t.Fatalf("Edges len=%d want %d", len(es), len(want))
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges[%d]=%v want %v", i, es[i], want[i])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	c := g.Clone()
	c.MustAddEdge(1, 2, 1)
	if g.M() != 1 || c.M() != 2 {
		t.Fatalf("clone not independent: g.M=%d c.M=%d", g.M(), c.M())
	}
}

func TestValidate(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := ErdosRenyi(50, 0.1, UnitWeights, r)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate on generator output: %v", err)
	}
	// Corrupt: inject asymmetric adjacency.
	g.adj[0] = append(g.adj[0], neighbor{To: 1, Weight: 1})
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should catch asymmetric adjacency")
	}
}

func TestWeightStats(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 8)
	if got := AspectRatio(FromGraph(g)); got != 4 {
		t.Fatalf("AspectRatio=%v want 4", got)
	}
	if got := AspectRatio(FromGraph(New(3))); got != 1 {
		t.Fatalf("edgeless AspectRatio=%v want 1", got)
	}
}

func TestDijkstraLine(t *testing.T) {
	g := Path(5, UnitWeights, rand.New(rand.NewSource(1)))
	res := Dijkstra(FromGraph(g), 0)
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
	g := New(3)
	g.MustAddEdge(0, 2, 10)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 3)
	res := Dijkstra(FromGraph(g), 0)
	if res.Dist[2] != 5 {
		t.Fatalf("Dist[2]=%v want 5", res.Dist[2])
	}
	if res.Parent[2] != 1 {
		t.Fatalf("Parent[2]=%d want 1", res.Parent[2])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	res := Dijkstra(FromGraph(g), 0)
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
	g := New(5)
	g.MustAddEdge(0, 4, 10)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 4, 1)
	if d := BoundedBellmanFord(FromGraph(g), 0, 1).Dist[4]; d != 10 {
		t.Fatalf("t=1: Dist[4]=%v want 10", d)
	}
	if d := BoundedBellmanFord(FromGraph(g), 0, 4).Dist[4]; d != 4 {
		t.Fatalf("t=4: Dist[4]=%v want 4", d)
	}
	if d := BoundedBellmanFord(FromGraph(g), 0, 2).Dist[4]; d != 10 {
		t.Fatalf("t=2: Dist[4]=%v want 10", d)
	}
}

func TestBoundedBellmanFordMatchesDijkstraWhenUnbounded(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := ErdosRenyi(80, 0.08, IntegerWeights(20), r)
	exact := Dijkstra(FromGraph(g), 3)
	bf := BoundedBellmanFord(FromGraph(g), 3, g.N())
	for v := 0; v < g.N(); v++ {
		if bf.Dist[v] != exact.Dist[v] {
			t.Fatalf("vertex %d: BF=%v Dijkstra=%v", v, bf.Dist[v], exact.Dist[v])
		}
	}
}

func TestBoundedBellmanFordMulti(t *testing.T) {
	g := Path(6, UnitWeights, rand.New(rand.NewSource(1)))
	res := BoundedBellmanFordMulti(FromGraph(g), []int{0, 5}, []float64{0, 0.5}, 10)
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
	g := Grid(4, 5, UnitWeights, r)
	d, err := HopDiameter(FromGraph(g))
	if err != nil {
		t.Fatalf("HopDiameter: %v", err)
	}
	if d != 4-1+5-1 {
		t.Fatalf("grid diameter=%d want 7", d)
	}
	ub, err := HopRadiusUpperBound(FromGraph(g))
	if err != nil {
		t.Fatalf("HopRadiusUpperBound: %v", err)
	}
	if ub < d {
		t.Fatalf("upper bound %d below diameter %d", ub, d)
	}
}

func TestHopDiameterDisconnected(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	if _, err := HopDiameter(FromGraph(g)); err == nil {
		t.Fatal("HopDiameter on disconnected graph should error")
	}
	if Connected(FromGraph(g)) {
		t.Fatal("Connected should be false")
	}
}

func TestShortestPathDiameter(t *testing.T) {
	// A 5-cycle with one heavy edge: shortest paths avoid the heavy edge,
	// so S = 4 even though hop diameter is 2.
	g := New(5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 4, 1)
	g.MustAddEdge(4, 0, 100)
	s, err := ShortestPathDiameter(FromGraph(g))
	if err != nil {
		t.Fatalf("ShortestPathDiameter: %v", err)
	}
	if s != 4 {
		t.Fatalf("S=%d want 4", s)
	}
	d, _ := HopDiameter(FromGraph(g))
	if d != 2 {
		t.Fatalf("D=%d want 2", d)
	}
}

func TestShortestPathDiameterAtLeastHopDiameter(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := ErdosRenyi(60, 0.1, IntegerWeights(50), r)
	s, err := ShortestPathDiameter(FromGraph(g))
	if err != nil {
		t.Fatalf("S: %v", err)
	}
	d, err := HopDiameter(FromGraph(g))
	if err != nil {
		t.Fatalf("D: %v", err)
	}
	if s < d {
		t.Fatalf("S=%d < D=%d", s, d)
	}
}

func TestAllPairsSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := ErdosRenyi(40, 0.15, IntegerWeights(9), r)
	ap := AllPairs(FromGraph(g))
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
