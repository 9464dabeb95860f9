package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Property: TreeDistHops agrees with the depth/LCA formula.
func TestTreeDistHopsProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%120) + 2
		r := rand.New(rand.NewSource(seed))
		g := RandomTree(n, UnitWeights, r)
		tr, err := SpanningTree(g, 0, "bfs", r)
		if err != nil {
			return false
		}
		depth := tr.Depths()
		lca := func(u, v int) int {
			for depth[u] > depth[v] {
				u = tr.Parent(u)
			}
			for depth[v] > depth[u] {
				v = tr.Parent(v)
			}
			for u != v {
				u, v = tr.Parent(u), tr.Parent(v)
			}
			return u
		}
		for trial := 0; trial < 20; trial++ {
			u, v := r.Intn(n), r.Intn(n)
			want := depth[u] + depth[v] - 2*depth[lca(u, v)]
			if tr.TreeDistHops(u, v) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dijkstra distances satisfy the triangle inequality through any
// intermediate vertex, and parents realise dist exactly.
func TestDijkstraInvariants(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%80) + 5
		r := rand.New(rand.NewSource(seed))
		c := ErdosRenyi(n, 0.1, IntegerWeights(20), r)
		res := Dijkstra(c, 0)
		for v := 0; v < n; v++ {
			if res.Dist[v] == Infinity {
				continue
			}
			if p := res.Parent[v]; p != NoVertex {
				w, ok := TopoEdgeWeight(c, p, v)
				if !ok || res.Dist[p]+w != res.Dist[v] {
					return false
				}
			}
			to, base := c.NeighborRange(v)
			for i, u := range to {
				if res.Dist[u] > res.Dist[v]+c.ArcWeight(base+i) {
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

// Property: bounded BF distances are monotone nonincreasing in the hop
// budget and sandwiched between exact and the 1-hop bound.
func TestBoundedBFMonotoneProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%60) + 5
		r := rand.New(rand.NewSource(seed))
		c := ErdosRenyi(n, 0.12, IntegerWeights(9), r)
		exact := Dijkstra(c, 0)
		prev := BoundedBellmanFord(c, 0, 1)
		for t := 2; t <= 8; t++ {
			cur := BoundedBellmanFord(c, 0, t)
			for v := 0; v < n; v++ {
				if cur.Dist[v] > prev.Dist[v] {
					return false
				}
				if cur.Dist[v] != Infinity && cur.Dist[v] < exact.Dist[v] {
					return false
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPathToReconstructsWeights(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	c := ErdosRenyi(70, 0.1, IntegerWeights(15), r)
	res := Dijkstra(c, 3)
	for v := 0; v < c.N(); v++ {
		path := res.PathTo(v)
		if path == nil {
			continue
		}
		var w float64
		for i := 1; i < len(path); i++ {
			ew, ok := TopoEdgeWeight(c, path[i-1], path[i])
			if !ok {
				t.Fatalf("path hop {%d,%d} missing", path[i-1], path[i])
			}
			w += ew
		}
		if w != res.Dist[v] {
			t.Fatalf("v=%d path weight %v != dist %v", v, w, res.Dist[v])
		}
	}
}

func TestHopsFieldCountsEdges(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	g := ErdosRenyi(60, 0.1, IntegerWeights(5), r)
	res := Dijkstra(g, 0)
	for v := 0; v < g.N(); v++ {
		path := res.PathTo(v)
		if path == nil {
			continue
		}
		if res.Hops[v] != len(path)-1 {
			t.Fatalf("v=%d hops %d path len %d", v, res.Hops[v], len(path))
		}
	}
}

func TestPrunedDijkstraInfiniteBoundIsDijkstra(t *testing.T) {
	g := ErdosRenyi(120, 0.06, IntegerWeights(20), rand.New(rand.NewSource(11)))
	bound := make([]float64, g.N())
	for v := range bound {
		bound[v] = Infinity
	}
	want := Dijkstra(g, 5)
	got := PrunedDijkstra(g, 5, bound)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("PrunedDijkstra under an all-Infinity bound differs from Dijkstra")
	}
}

// TestPrunedDijkstraDropsAtOrAboveBound prunes at two 1-Lipschitz bounds, a
// constant radius and the distance to a sampled set (a Thorup-Zwick
// cluster), under which the kept vertices are exactly those whose true
// distance is below their bound, at their true distance.
func TestPrunedDijkstraDropsAtOrAboveBound(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	g := ErdosRenyi(150, 0.05, IntegerWeights(10), r)
	const src = 0
	exact := Dijkstra(g, src).Dist
	radius := make([]float64, g.N())
	var set []int
	for v := range radius {
		radius[v] = exact[g.N()/2] // integer weights: some vertices sit at it
		if v != src && r.Float64() < 0.05 {
			set = append(set, v)
		}
	}
	toSet := BoundedBellmanFordMulti(g, set, nil, g.N()).Dist
	for _, c := range []struct {
		name  string
		bound []float64
	}{{"radius", radius}, {"set", toSet}} {
		res := PrunedDijkstra(g, src, c.bound)
		kept, atBound := 0, 0
		for v := 0; v < g.N(); v++ {
			if exact[v] >= c.bound[v] {
				if exact[v] == c.bound[v] {
					atBound++
				}
				if res.Dist[v] != Infinity || res.Parent[v] != NoVertex || res.Hops[v] != -1 {
					t.Fatalf("%s: vertex %d at d=%v >= bound %v kept", c.name, v, exact[v], c.bound[v])
				}
				continue
			}
			kept++
			if res.Dist[v] != exact[v] {
				t.Fatalf("%s: vertex %d dist %v, want %v", c.name, v, res.Dist[v], exact[v])
			}
		}
		if kept < 2 || kept == g.N() || atBound == 0 {
			t.Fatalf("%s: %d of %d vertices kept, %d at the bound: the case tests nothing", c.name, kept, g.N(), atBound)
		}
		if _, err := NewTree(src, res.Parent); err != nil {
			t.Fatalf("%s: pruned parents are not a tree: %v", c.name, err)
		}
	}
}
