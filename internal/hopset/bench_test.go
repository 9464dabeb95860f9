package hopset

import (
	"math/rand"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

// buildBFBench constructs a fixed hopset instance for the steady-state
// limited Bellman-Ford regime - the hottest handler loop of the high-level
// phases (one B-bounded exploration plus one hopset broadcast per
// iteration). Workers are pinned to 1 so the alloc figures are the handler
// layer's, not goroutine-spawn noise.
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

// BenchmarkLimitedBF measures one full unlimited run of the limited
// Bellman-Ford kernel on a warm workspace: explorations, broadcasts and
// relaxations, with the workspace recycled across calls.
func BenchmarkLimitedBF(b *testing.B) {
	sim, vg, hs, seeds := buildBFBench(b)
	bf := NewLimitedBF(NewExplorer(sim), vg, hs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bf.Run(seeds, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBellmanFordSteadyStateAllocFree pins the zero-allocation contract of
// the limited Bellman-Ford kernel on its own: once its workspace, the
// explorer state and the arena size classes are warm, a full unlimited run
// allocates nothing - from one seed, and from several seeds sharing one
// root, as the approximate pivots run it.
func TestBellmanFordSteadyStateAllocFree(t *testing.T) {
	sim, vg, hs, seeds := buildBFBench(t)
	m := vg.Members()
	shared := []Source{{Root: -1, At: m[0]}, {Root: -1, At: m[len(m)/2]}, {Root: -1, At: m[len(m)-1]}}
	bf := NewLimitedBF(NewExplorer(sim), vg, hs)
	run := func() {
		for _, s := range [][]Source{seeds, shared} {
			if _, err := bf.Run(s, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("steady-state limited Bellman-Ford allocates %v/op, want 0", allocs)
	}
}
