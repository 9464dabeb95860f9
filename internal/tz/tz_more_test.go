package tz

import (
	"math/rand"
	"testing"

	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/graph"
)

func TestLargeKStillRoutes(t *testing.T) {
	g := testGraph(t, graph.FamilyErdosRenyi, 60, 101)
	s, err := Build(g, Options{K: 9, Seed: 102})
	if err != nil {
		t.Fatal(err)
	}
	tab := dataplane.Compile(s.Scheme)
	r := rand.New(rand.NewSource(103))
	for trial := 0; trial < 50; trial++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		if _, _, err := tab.Route(u, v); err != nil {
			t.Fatalf("route %d->%d: %v", u, v, err)
		}
	}
}

func TestHugeAspectRatio(t *testing.T) {
	// Weights spanning 6 orders of magnitude: routing must stay within
	// the stretch bound (no Λ-dependence in correctness).
	r := rand.New(rand.NewSource(104))
	g := graph.ErdosRenyi(100, 0.08, graph.UniformWeights(1, 1e6), r)
	s, err := Build(g, Options{K: 2, Seed: 105})
	if err != nil {
		t.Fatal(err)
	}
	tab := dataplane.Compile(s.Scheme)
	exact := graph.AllPairs(g)
	for trial := 0; trial < 100; trial++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		if u == v {
			continue
		}
		_, w, err := tab.Route(u, v)
		if err != nil {
			t.Fatalf("route %d->%d: %v", u, v, err)
		}
		if w/exact[u][v] > float64(4*2-3)+1e-9 {
			t.Fatalf("stretch %v", w/exact[u][v])
		}
	}
}

func TestEveryVertexHasItsOwnCluster(t *testing.T) {
	g := testGraph(t, graph.FamilyErdosRenyi, 100, 108)
	s, err := Build(g, Options{K: 3, Seed: 109})
	if err != nil {
		t.Fatal(err)
	}
	// Every vertex is a center at its top level, so it has a cluster tree
	// containing at least itself, and its level-0 pivot is itself.
	for v := 0; v < g.N(); v++ {
		c := s.Cluster(v)
		if c == nil || !c.Tree.Member(v) {
			t.Fatalf("vertex %d lacks its own cluster", v)
		}
		e := s.Labels[v].Entries[0]
		if e.Level != 0 || e.Root != v || !e.InCluster {
			t.Fatalf("vertex %d level-0 entry %+v", v, e)
		}
	}
}

func TestSelfRouteIsTrivial(t *testing.T) {
	g := testGraph(t, graph.FamilyErdosRenyi, 40, 110)
	s, err := Build(g, Options{K: 2, Seed: 111})
	if err != nil {
		t.Fatal(err)
	}
	tab := dataplane.Compile(s.Scheme)
	path, w, err := tab.Route(7, 7)
	if err != nil || len(path) != 1 || w != 0 {
		t.Fatalf("self route: %v %v %v", path, w, err)
	}
}

func TestEmptyGraphBuild(t *testing.T) {
	s, err := Build(graph.NewCSRBuilder(0).Build(), Options{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Labels) != 0 || len(s.Clusters) != 0 {
		t.Fatal("empty graph should give empty scheme")
	}
}
