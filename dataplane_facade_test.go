package lowmemroute

import (
	"testing"
)

// TestDataPlaneEquivalence pins the facade contract: Scheme.Route,
// Scheme.RouteAppend and a DataPlane's Route agree on every pair (paths,
// bit-equal weights, errors), Lookup's first hops start those walks, and
// Rebuild keeps serving.
func TestDataPlaneEquivalence(t *testing.T) {
	net, err := Generate(ErdosRenyi, 72, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(net, Config{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	var buf []int
	for u := 0; u < net.Nodes(); u++ {
		for v := 0; v < net.Nodes(); v++ {
			want, wantErr := s.Route(u, v)
			got, gotErr := dp.Route(u, v)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%d->%d: err %v vs %v", u, v, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if len(want.Nodes) != len(got.Nodes) || want.Weight != got.Weight {
				t.Fatalf("%d->%d: %v (%v) vs %v (%v)", u, v, want.Nodes, want.Weight, got.Nodes, got.Weight)
			}
			for i := range want.Nodes {
				if want.Nodes[i] != got.Nodes[i] {
					t.Fatalf("%d->%d: node %d differs", u, v, i)
				}
			}
			var w float64
			buf, w, err = s.RouteAppend(u, v, buf[:0])
			if err != nil || w != want.Weight || len(buf) != len(want.Nodes) {
				t.Fatalf("%d->%d: RouteAppend %v (%v, err %v)", u, v, buf, w, err)
			}
		}
	}

	// Lookup/LookupBatch surface: the first hop of every routable pair must
	// be the second node of the full walk.
	dst := make([]Label, net.Nodes())
	for i := range dst {
		dst[i] = Label(i)
	}
	out := make([]NextHop, net.Nodes())
	if got := dp.LookupBatch(3, dst, out); got != net.Nodes() {
		t.Fatalf("LookupBatch made %d decisions", got)
	}
	for v, hop := range out {
		p, err := dp.Route(3, v)
		if err != nil {
			if hop.Next != -1 {
				t.Fatalf("3->%d: unroutable pair got hop %+v", v, hop)
			}
			continue
		}
		if v == 3 {
			if !hop.Arrived {
				t.Fatalf("self lookup: %+v", hop)
			}
			continue
		}
		if int(hop.Next) != p.Nodes[1] {
			t.Fatalf("3->%d: first hop %d, walk %v", v, hop.Next, p.Nodes)
		}
	}

	dp.Rebuild()
	if p, err := dp.Route(0, net.Nodes()-1); err == nil && len(p.Nodes) == 0 {
		t.Fatal("rebuilt data plane returned an empty path")
	}
}

// TestDataPlaneEquivalenceUnderCrash serves the scheme, crashes a transit
// node, and checks that every pair whose clean compiled walk avoids the
// victim still delivers exactly that walk, undegraded: the crash detours
// change nothing for packets that never meet the crash.
func TestDataPlaneEquivalenceUnderCrash(t *testing.T) {
	net, err := Generate(ErdosRenyi, 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(net, Config{K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	pn := s.Serve()
	defer pn.Close()

	// Pick the transit node that appears in the most clean walks.
	hits := make([]int, net.Nodes())
	for u := 0; u < net.Nodes(); u++ {
		for v := 0; v < net.Nodes(); v++ {
			p, err := dp.Route(u, v)
			if err != nil {
				continue
			}
			for _, x := range p.Nodes[1:max(len(p.Nodes)-1, 1)] {
				hits[x]++
			}
		}
	}
	victim := 0
	for v, h := range hits {
		if h > hits[victim] {
			victim = v
		}
	}
	pn.Crash(victim)

	checked := 0
	for u := 0; u < net.Nodes() && checked < 300; u++ {
		for v := 0; v < net.Nodes() && checked < 300; v++ {
			if u == victim || v == victim {
				continue
			}
			want, err := dp.Route(u, v)
			if err != nil {
				continue
			}
			touches := false
			for _, x := range want.Nodes {
				if x == victim {
					touches = true
					break
				}
			}
			if touches {
				continue
			}
			d, err := pn.Send(u, v)
			if err != nil {
				t.Fatalf("send %d->%d with %d down: %v", u, v, victim, err)
			}
			if d.Degraded {
				t.Fatalf("send %d->%d degraded though its walk avoids %d", u, v, victim)
			}
			if len(d.Nodes) != len(want.Nodes) {
				t.Fatalf("send %d->%d path %v, compiled walk %v", u, v, d.Nodes, want.Nodes)
			}
			for i := range want.Nodes {
				if d.Nodes[i] != want.Nodes[i] {
					t.Fatalf("send %d->%d path %v diverges from compiled walk %v", u, v, d.Nodes, want.Nodes)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no victim-avoiding pairs found")
	}
}

// TestCompileReusesBuildTable pins that a facade scheme is compiled exactly
// once, by Build: Compile serves that same table and allocates only its
// DataPlane and engine, while Rebuild compiles a fresh one.
func TestCompileReusesBuildTable(t *testing.T) {
	net, err := Generate(ErdosRenyi, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(net, Config{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if dp.eng.Table() != s.tab {
		t.Fatal("Compile compiled a second table")
	}
	if a := testing.AllocsPerRun(20, func() {
		if _, err := Compile(s); err != nil {
			t.Fatal(err)
		}
	}); a > 2 {
		t.Fatalf("Compile allocates %v objects per call, want at most 2 (no table)", a)
	}
	dp.Rebuild()
	if dp.eng.Table() == s.tab {
		t.Fatal("Rebuild did not recompile")
	}
}
