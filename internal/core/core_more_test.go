package core

import (
	"math/rand"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/treeroute"
)

func TestPhaseRoundsSumToTotal(t *testing.T) {
	g := testGraph(t, graph.FamilyErdosRenyi, 100, 201)
	sim := congest.NewTopo(g)
	s, err := Build(sim, Options{K: 2, Seed: 202})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, r := range s.Stats.PhaseRounds {
		sum += r
	}
	if sum != sim.Rounds() {
		t.Fatalf("phase rounds %d != total %d (%v)", sum, sim.Rounds(), s.Stats.PhaseRounds)
	}
	for _, phase := range []string{"exact-pivots", "low-clusters", "hopset", "approx-clusters", "tree-routing"} {
		if _, ok := s.Stats.PhaseRounds[phase]; !ok {
			t.Fatalf("missing phase %q", phase)
		}
	}
}

func TestRouteFailsOnCorruptedTable(t *testing.T) {
	g := testGraph(t, graph.FamilyErdosRenyi, 80, 203)
	s, _ := buildScheme(t, g, 2, 204)
	tab := dataplane.Compile(s.Scheme)
	// Find a pair routed through at least one intermediate vertex.
	var src, dst, mid int
	found := false
	for u := 0; u < g.N() && !found; u++ {
		for v := 0; v < g.N() && !found; v++ {
			path, _, err := tab.Route(u, v)
			if err == nil && len(path) >= 3 {
				src, dst, mid = u, v, path[1]
				found = true
			}
		}
	}
	if !found {
		t.Skip("no multi-hop route found")
	}
	// Corrupt every table at the intermediate vertex into a dead end (an
	// empty interval, no parent, no heavy child): routing must error, not
	// loop or panic.
	for _, c := range s.Clusters {
		if i := c.Tree.MemberIndex(mid); i >= 0 {
			c.Scheme.Tables[i] = treeroute.Table{In: 0, Out: -1, Parent: graph.NoVertex, Heavy: graph.NoVertex}
		}
	}
	if _, _, err := dataplane.Compile(s.Scheme).Route(src, dst); err == nil {
		t.Fatal("routing through a table-less vertex should fail loudly")
	}
}

func TestUnitWeightGraph(t *testing.T) {
	// Hypercube with unit-ish weights: aspect ratio near 1.
	g := testGraph(t, graph.FamilyHypercube, 128, 210)
	s, _ := buildScheme(t, g, 3, 211)
	tab := dataplane.Compile(s.Scheme)
	exact := graph.AllPairs(g)
	r := rand.New(rand.NewSource(212))
	for trial := 0; trial < 80; trial++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		if u == v {
			continue
		}
		_, w, err := tab.Route(u, v)
		if err != nil {
			t.Fatalf("route %d->%d: %v", u, v, err)
		}
		if w/exact[u][v] > float64(4*3-3)+0.5 {
			t.Fatalf("hypercube stretch %v", w/exact[u][v])
		}
	}
}

func TestQuantizedGraphStillRoutes(t *testing.T) {
	// The Section 2 adaptation: build on the (1+eps)-quantized graph; the
	// stretch bound degrades by at most (1+eps).
	r := rand.New(rand.NewSource(213))
	g := graph.ErdosRenyi(100, 0.08, graph.UniformWeights(1, 1e5), r)
	eps := 0.1
	q := g.Quantize(eps)
	sim := congest.NewTopo(q)
	s, err := Build(sim, Options{K: 2, Seed: 214})
	if err != nil {
		t.Fatal(err)
	}
	tab := dataplane.Compile(s.Scheme)
	exact := graph.AllPairs(g) // stretch measured against the ORIGINAL metric
	bound := (float64(4*2-3) + 0.5) * (1 + eps)
	for trial := 0; trial < 80; trial++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		if u == v {
			continue
		}
		_, w, err := tab.Route(u, v)
		if err != nil {
			t.Fatalf("route %d->%d: %v", u, v, err)
		}
		if w/exact[u][v] > bound {
			t.Fatalf("quantized stretch %v exceeds %v", w/exact[u][v], bound)
		}
	}
}

func TestLargeKCollapsesToTopLevel(t *testing.T) {
	// k far above log n: most levels are empty; the scheme must still
	// build and route.
	g := testGraph(t, graph.FamilyErdosRenyi, 60, 215)
	sim := congest.NewTopo(g)
	s, err := Build(sim, Options{K: 8, Seed: 216})
	if err != nil {
		t.Fatal(err)
	}
	tab := dataplane.Compile(s.Scheme)
	r := rand.New(rand.NewSource(217))
	for trial := 0; trial < 40; trial++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		if _, _, err := tab.Route(u, v); err != nil {
			t.Fatalf("route %d->%d: %v", u, v, err)
		}
	}
}
