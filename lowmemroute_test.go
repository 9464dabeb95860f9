package lowmemroute

import (
	"testing"
)

func TestFacadeBuildAndRoute(t *testing.T) {
	net, err := Generate(ErdosRenyi, 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := Build(net, Config{K: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep := scheme.Report()
	if rep.Rounds == 0 || rep.Messages == 0 || rep.PeakMemory == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	if rep.MaxTableWords == 0 || rep.MaxLabelWords == 0 {
		t.Fatalf("empty sizes: %+v", rep)
	}
	for trial := 0; trial < 50; trial++ {
		u, v := trial%net.Nodes(), (trial*7+3)%net.Nodes()
		p, err := scheme.Route(u, v)
		if err != nil {
			t.Fatalf("route %d->%d: %v", u, v, err)
		}
		if p.Nodes[0] != u || p.Nodes[len(p.Nodes)-1] != v {
			t.Fatalf("bad endpoints: %v", p.Nodes)
		}
		if u != v {
			exact := net.ShortestPath(u, v)
			if p.Weight < exact {
				t.Fatalf("route %d->%d weight %v below exact %v", u, v, p.Weight, exact)
			}
			if p.Weight > exact*(4*2-3)+1e-9 {
				t.Fatalf("route %d->%d stretch %v", u, v, p.Weight/exact)
			}
		}
		if p.Hops() != len(p.Nodes)-1 {
			t.Fatal("Hops inconsistent")
		}
	}
}

func TestFacadeManualNetwork(t *testing.T) {
	net := NewNetwork(4)
	net.MustAddLink(0, 1, 1)
	net.MustAddLink(1, 2, 2)
	net.MustAddLink(2, 3, 1)
	net.MustAddLink(3, 0, 5)
	if net.Nodes() != 4 || net.Links() != 4 {
		t.Fatalf("N=%d M=%d", net.Nodes(), net.Links())
	}
	if !net.Connected() {
		t.Fatal("should be connected")
	}
	scheme, err := Build(net, Config{K: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := scheme.Route(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Weight != 3 { // 0-1-2
		t.Fatalf("weight %v want 3", p.Weight)
	}
	if scheme.TableWords(0) == 0 || scheme.LabelWords(0) == 0 {
		t.Fatal("per-node sizes empty")
	}
}

func TestFacadeBuildErrors(t *testing.T) {
	net := NewNetwork(4)
	net.MustAddLink(0, 1, 1)
	// Disconnected.
	if _, err := Build(net, Config{K: 2}); err == nil {
		t.Fatal("disconnected network should error")
	}
	if _, err := Build(nil, Config{K: 2}); err == nil {
		t.Fatal("nil network should error")
	}
	conn := NewNetwork(2)
	conn.MustAddLink(0, 1, 1)
	if _, err := Build(conn, Config{K: 0}); err == nil {
		t.Fatal("K=0 should error")
	}
}

func TestFacadeAddNodeAndLinkErrors(t *testing.T) {
	if neg := NewNetwork(-1); neg.Nodes() != 0 || neg.Links() != 0 {
		t.Fatalf("NewNetwork(-1) has %d nodes, %d links, want an empty network", neg.Nodes(), neg.Links())
	}
	net := NewNetwork(0)
	a, b := net.AddNode(), net.AddNode()
	if err := net.AddLink(a, b, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.AddLink(a, a, 1); err == nil {
		t.Fatal("self link should error")
	}
	if err := net.AddLink(a, 99, 1); err == nil {
		t.Fatal("out of range should error")
	}
	if err := net.AddLink(a, b, -1); err == nil {
		t.Fatal("negative weight should error")
	}
}

func TestFacadeTreeRouting(t *testing.T) {
	net, err := Generate(ErdosRenyi, 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := net.SpanningTree(0, "dfs", 6)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root() != 0 || tree.Size() != net.Nodes() {
		t.Fatalf("tree root=%d size=%d", tree.Root(), tree.Size())
	}
	ts, err := BuildTree(net, tree, TreeConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rep := ts.Report()
	if rep.Rounds == 0 || rep.Portals == 0 {
		t.Fatalf("empty tree report: %+v", rep)
	}
	if rep.MaxTableWords != 4 {
		t.Fatalf("tree tables = %d words, want 4 (O(1))", rep.MaxTableWords)
	}
	for trial := 0; trial < 50; trial++ {
		u, v := (trial*13)%net.Nodes(), (trial*29+1)%net.Nodes()
		p, err := ts.Route(u, v)
		if err != nil {
			t.Fatalf("tree route %d->%d: %v", u, v, err)
		}
		if p.Nodes[len(p.Nodes)-1] != v {
			t.Fatalf("tree route ends at %d", p.Nodes[len(p.Nodes)-1])
		}
		// Every hop is a parent/child tree edge.
		for i := 1; i < len(p.Nodes); i++ {
			a, b := p.Nodes[i-1], p.Nodes[i]
			if tree.Parent(a) != b && tree.Parent(b) != a {
				t.Fatalf("hop {%d,%d} not a tree edge", a, b)
			}
		}
	}
}

func TestFacadeTreeFromParents(t *testing.T) {
	net := NewNetwork(4)
	net.MustAddLink(0, 1, 1)
	net.MustAddLink(1, 2, 1)
	net.MustAddLink(2, 3, 1)
	tree, err := net.TreeFromParents(0, []int{-1, 0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Height() != 3 {
		t.Fatalf("height=%d", tree.Height())
	}
	// Non-link edge rejected.
	if _, err := net.TreeFromParents(0, []int{-1, 0, 0, 2}); err == nil {
		t.Fatal("tree with non-link edge should be rejected")
	}
	// Wrong length rejected.
	if _, err := net.TreeFromParents(0, []int{-1, 0}); err == nil {
		t.Fatal("short parents should be rejected")
	}
}

func TestFacadeDeterminism(t *testing.T) {
	build := func() Report {
		net, err := Generate(Geometric, 100, 9)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Build(net, Config{K: 2, Seed: 10})
		if err != nil {
			t.Fatal(err)
		}
		return s.Report()
	}
	a, b := build(), build()
	if a.Rounds != b.Rounds || a.Messages != b.Messages ||
		a.PeakMemory != b.PeakMemory || a.MaxTableWords != b.MaxTableWords {
		t.Fatalf("nondeterministic reports:\n%+v\n%+v", a, b)
	}
	for phase, r := range a.PhaseRounds {
		if b.PhaseRounds[phase] != r {
			t.Fatalf("phase %q rounds differ: %d vs %d", phase, r, b.PhaseRounds[phase])
		}
	}
}

func TestGenerateFamilies(t *testing.T) {
	for _, f := range []Family{ErdosRenyi, Geometric, Grid, Torus, PowerLaw, Hypercube} {
		net, err := Generate(f, 80, 11)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !net.Connected() {
			t.Fatalf("%s: not connected", f)
		}
	}
	if _, err := Generate(Family("nope"), 10, 1); err == nil {
		t.Fatal("unknown family should error")
	}
}
