package hopset

import (
	"math/rand"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

// buildBFBench constructs a fixed hopset instance for the steady-state
// Bellman-Ford regime - the hottest handler loop of the high-level phases
// (one B-bounded exploration plus one hopset broadcast per iteration).
// Workers are pinned to 1 so the alloc figures are the handler layer's, not
// goroutine-spawn noise.
func buildBFBench(tb testing.TB) (*congest.Simulator, *VirtualGraph, *Hopset, []Source) {
	tb.Helper()
	gen, err := graph.GenerateCSR(graph.FamilyErdosRenyi, 200, rand.New(rand.NewSource(31)))
	if err != nil {
		tb.Fatal(err)
	}
	g := gen
	r := rand.New(rand.NewSource(32))
	var members []int
	for v := 0; v < g.N(); v++ {
		if r.Float64() < 0.25 {
			members = append(members, v)
		}
	}
	vg, err := NewVirtualGraph(g, members, 3)
	if err != nil {
		tb.Fatal(err)
	}
	sim := congest.NewTopo(g, congest.WithWorkers(1))
	hs, err := Build(NewExplorer(sim), vg, Options{Kappa: 3, Seed: 33})
	if err != nil {
		tb.Fatal(err)
	}
	seeds := []Source{{Root: -1, At: vg.Members()[0], Dist: 0}}
	return sim, vg, hs, seeds
}

// BenchmarkBellmanFordSteady measures one full hopset-accelerated
// Bellman-Ford on a warm BFScratch: explorations, broadcasts, and relax
// commits, with the workspace recycled across calls.
func BenchmarkBellmanFordSteady(b *testing.B) {
	sim, vg, hs, seeds := buildBFBench(b)
	sc := NewBFScratch(nil)
	if _, err := BellmanFord(sim, vg, hs, seeds, sc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BellmanFord(sim, vg, hs, seeds, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBellmanFordSteadyStateAllocFree pins the zero-allocation contract of
// the typed-payload handler layer: once the scratch, explorer state, and
// arena size classes are warm, a full Bellman-Ford run allocates nothing.
func TestBellmanFordSteadyStateAllocFree(t *testing.T) {
	sim, vg, hs, seeds := buildBFBench(t)
	sc := NewBFScratch(nil)
	run := func() {
		if _, err := BellmanFord(sim, vg, hs, seeds, sc); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("steady-state BellmanFord allocates %v/op, want 0", allocs)
	}
}
