package lowmemroute

import (
	"reflect"
	"testing"
)

// TestBuildUnderFaultsStaysComplete builds the full scheme on a lossy
// network and checks robustness changed the cost, not the guarantees: every
// pair still routes (faults may legitimately flip equal-distance tie-breaks,
// so exact paths can differ from the clean build) and the worst stretch stays
// within 2x of the clean scheme's.
func TestBuildUnderFaultsStaysComplete(t *testing.T) {
	net, err := Generate(ErdosRenyi, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Build(net, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Build(net, Config{K: 2, Seed: 1,
		Faults: &FaultPlan{Seed: 1, Drop: 0.05, Delay: 1, Duplicate: 0.05}})
	if err != nil {
		t.Fatalf("Build under faults: %v", err)
	}
	rep := faulty.Report()
	if !rep.Faults.Any() {
		t.Fatal("fault plan saw no action")
	}
	if rep.Faults.Dropped != rep.Faults.Retried+rep.Faults.Lost {
		t.Fatalf("counter invariant violated: %+v", rep.Faults)
	}
	if rep.Rounds <= clean.Report().Rounds {
		t.Fatalf("faulty rounds %d <= clean %d", rep.Rounds, clean.Report().Rounds)
	}
	maxClean, maxFaulty := 1.0, 1.0
	for src := 0; src < net.Nodes(); src++ {
		for dst := 0; dst < net.Nodes(); dst++ {
			if src == dst {
				continue
			}
			want, err1 := clean.Route(src, dst)
			got, err2 := faulty.Route(src, dst)
			if err1 != nil || err2 != nil {
				t.Fatalf("route %d->%d: clean err %v, faulty err %v", src, dst, err1, err2)
			}
			d := net.ShortestPath(src, dst)
			if s := want.Weight / d; s > maxClean {
				maxClean = s
			}
			if s := got.Weight / d; s > maxFaulty {
				maxFaulty = s
			}
		}
	}
	if maxFaulty > 2*maxClean {
		t.Fatalf("faulty max stretch %.2f > 2x clean %.2f", maxFaulty, maxClean)
	}
}

// TestBuildFaultsDeterministic checks equal seeds give identical reports.
func TestBuildFaultsDeterministic(t *testing.T) {
	net, err := Generate(Torus, 36, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan := &FaultPlan{Seed: 5, Drop: 0.1, Duplicate: 0.1, Delay: 2}
	a, err := Build(net, Config{K: 2, Seed: 2, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(net, Config{K: 2, Seed: 2, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Report(), b.Report()) {
		t.Fatalf("reports differ:\n%+v\n%+v", a.Report(), b.Report())
	}
}

// TestBuildZeroPlanIsClean checks a nil and a zero-valued plan produce the
// byte-identical clean report.
func TestBuildZeroPlanIsClean(t *testing.T) {
	net, err := Generate(Grid, 36, 4)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Build(net, Config{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Build(net, Config{K: 2, Seed: 3, Faults: &FaultPlan{}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean.Report(), zero.Report()) {
		t.Fatalf("zero plan changed the report:\n%+v\n%+v", clean.Report(), zero.Report())
	}
}

// TestBuildTreeUnderFaults runs the tree construction on a lossy network.
func TestBuildTreeUnderFaults(t *testing.T) {
	net, err := Generate(Geometric, 80, 6)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := net.SpanningTree(0, "dfs", 6)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := BuildTree(net, tree, TreeConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := BuildTree(net, tree, TreeConfig{Seed: 7,
		Faults: &FaultPlan{Seed: 8, Drop: 0.1, Duplicate: 0.2}})
	if err != nil {
		t.Fatalf("BuildTree under faults: %v", err)
	}
	if !faulty.Report().Faults.Any() {
		t.Fatal("fault plan saw no action")
	}
	for src := 0; src < net.Nodes(); src += 11 {
		for dst := 0; dst < net.Nodes(); dst += 13 {
			if !tree.Member(src) || !tree.Member(dst) {
				continue
			}
			want, err1 := clean.Route(src, dst)
			got, err2 := faulty.Route(src, dst)
			if (err1 == nil) != (err2 == nil) || (err1 == nil && !reflect.DeepEqual(want, got)) {
				t.Fatalf("route %d->%d differs under faults", src, dst)
			}
		}
	}
}

// TestPacketNetworkCrashDegrades crashes a transit node of the served scheme
// and checks deliveries either degrade gracefully or fail cleanly, and that
// recovery restores clean routing.
func TestPacketNetworkCrashDegrades(t *testing.T) {
	net, err := Generate(ErdosRenyi, 80, 9)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(net, Config{K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	pn := s.Serve()
	defer pn.Close()

	// Find a pair whose clean path has an intermediate node.
	var victim, src, dst int
	found := false
	for u := 0; u < net.Nodes() && !found; u++ {
		for v := 0; v < net.Nodes() && !found; v++ {
			p, err := pn.Send(u, v)
			if err == nil && len(p.Nodes) >= 3 {
				src, dst, victim = u, v, p.Nodes[len(p.Nodes)/2]
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no multi-hop route found")
	}
	pn.Crash(victim)
	if !pn.Down(victim) {
		t.Fatal("Down should report the crash")
	}
	p, err := pn.Send(src, dst)
	if err == nil {
		if !p.Degraded {
			t.Fatalf("delivery through crashed region should be degraded: %v", p.Nodes)
		}
		for _, x := range p.Nodes {
			if x == victim {
				t.Fatalf("path %v goes through crashed node %d", p.Nodes, victim)
			}
		}
	}
	pn.Recover(victim)
	p, err = pn.Send(src, dst)
	if err != nil {
		t.Fatalf("send after recovery: %v", err)
	}
	if p.Degraded {
		t.Fatal("recovered network should not degrade")
	}
}

// TestParseFaultSpecRoundTrip checks the facade spec parser round-trips.
func TestParseFaultSpecRoundTrip(t *testing.T) {
	p, err := ParseFaultSpec("drop=0.05,delay=2,dup=0.01,seed=7,crash=3,17,part=0,1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop != 0.05 || p.Delay != 2 || p.Duplicate != 0.01 || p.Seed != 7 {
		t.Fatalf("parsed %+v", p)
	}
	if len(p.Crashes) != 2 || p.Crashes[0].Vertex != 3 || p.Crashes[1].Vertex != 17 {
		t.Fatalf("crashes %+v", p.Crashes)
	}
	if len(p.Partitions) != 1 || len(p.Partitions[0].Members) != 2 {
		t.Fatalf("partitions %+v", p.Partitions)
	}
	q, err := ParseFaultSpec(p.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.String(), err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip changed the plan:\n%+v\n%+v", p, q)
	}
	if _, err := ParseFaultSpec("drop=2"); err == nil {
		t.Fatal("drop=2 should be rejected")
	}
}
