package hopset

import (
	"math/rand"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

func buildSparseHopset(t *testing.T, family graph.Family, n, b, kappa int, seed int64) (*VirtualGraph, *Hopset) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	gen, err := graph.GenerateCSR(family, n, r)
	if err != nil {
		t.Fatal(err)
	}
	g := gen
	vg, err := NewVirtualGraph(g, sampleMembers(g, 0.3, r), b)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := Build(NewExplorer(congest.NewTopo(g)), vg, Options{Kappa: kappa, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return vg, hs
}

func TestMeasureHopboundBeatsPlainBF(t *testing.T) {
	// On a grid with a small virtual radius the plain virtual graph has a
	// large unweighted diameter; the hopset's measured β must be smaller.
	vg, hs := buildSparseHopset(t, graph.FamilyGrid, 196, 3, 3, 1)
	r := rand.New(rand.NewSource(2))
	betaWith, checked, err := MeasureHopbound(vg, hs, 0.0, 40, r)
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Skip("no usable pairs")
	}
	// β without any hopset = measured on the bare virtual graph.
	bare := &Hopset{vg: vg}
	betaWithout, _, err := MeasureHopbound(vg, bare, 0.0, 40, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if betaWith > betaWithout {
		t.Fatalf("hopset increased beta: with=%d without=%d", betaWith, betaWithout)
	}
	if betaWith == 0 {
		t.Fatal("beta should be positive")
	}
}

func mustVirtualForTest(t *testing.T, g graph.Topology, members []int, b int) *VirtualGraph {
	t.Helper()
	vg, err := NewVirtualGraph(g, members, b)
	if err != nil {
		t.Fatal(err)
	}
	return vg
}

func TestVerifyHopsetHolds(t *testing.T) {
	vg, hs := buildSparseHopset(t, graph.FamilyErdosRenyi, 150, 3, 3, 3)
	r := rand.New(rand.NewSource(4))
	beta, checked, err := MeasureHopbound(vg, hs, 0.05, 30, r)
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Skip("no usable pairs")
	}
	u, v, err := VerifyHopset(vg, hs, 0.05, beta, 60, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if u != -1 {
		t.Fatalf("hopset property violated for pair (%d,%d) at beta=%d", u, v, beta)
	}
}

func TestVerifyHopsetDetectsTooSmallBeta(t *testing.T) {
	// With β=1 and ε=0 on a sparse virtual graph, some pair must violate
	// the upper bound (unless the hopset happens to shortcut everything).
	vg, _ := buildSparseHopset(t, graph.FamilyGrid, 196, 3, 2, 6)
	bare := &Hopset{vg: vg}
	u, _, err := VerifyHopset(vg, bare, 0.0, 1, 80, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if u == -1 {
		t.Skip("virtual graph too dense for the negative test")
	}
}

func TestMeasureHopboundTinyGraph(t *testing.T) {
	g := graph.NewCSRBuilder(1).Build()
	vg := mustVirtualForTest(t, g, []int{0}, 2)
	hs, err := Build(NewExplorer(congest.NewTopo(g)), vg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	beta, checked, err := MeasureHopbound(vg, hs, 0.1, 10, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if beta != 0 || checked != 0 {
		t.Fatalf("beta=%d checked=%d want 0,0", beta, checked)
	}
}
