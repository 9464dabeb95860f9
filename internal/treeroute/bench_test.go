package treeroute

import (
	"math/rand"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

// benchWorkload builds a multi-tree workload: an Erdős–Rényi graph plus
// three BFS spanning trees, with the simulator pinned to one worker so
// alloc figures measure the handler layer, not goroutine spawns.
func benchWorkload(tb testing.TB) (*congest.Simulator, []*graph.Tree) {
	tb.Helper()
	r := rand.New(rand.NewSource(7))
	g, err := graph.Generate(graph.FamilyErdosRenyi, 120, r)
	if err != nil {
		tb.Fatal(err)
	}
	var trees []*graph.Tree
	for _, root := range []int{0, 10, 20} {
		tr, err := graph.SpanningTree(graph.FromGraph(g), root, "bfs", r)
		if err != nil {
			tb.Fatal(err)
		}
		trees = append(trees, tr)
	}
	return congest.NewTopo(graph.FromGraph(g), congest.WithSeed(7), congest.WithWorkers(1)), trees
}

// BenchmarkLightPipeline measures the full Section 3 construction pipeline
// (portal sampling through DFS shifts) over three trees in parallel. The
// pipeline allocates per-build state by design; TestLightPipelineAllocBudget
// caps it, while the steady-state contract is pinned by
// TestShiftsDownSteadyStateAllocFree below.
func BenchmarkLightPipeline(b *testing.B) {
	sim, trees := benchWorkload(b)
	if _, err := BuildDistributed(sim, trees, DistOptions{Seed: 7}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildDistributed(sim, trees, DistOptions{Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// lightPipelineAllocBudget is how many allocations one warm
// BenchmarkLightPipeline build may make: the 820 measured when this pin was
// set (the same under -race), plus 10%. A change that needs more must say
// why and move the pin.
const lightPipelineAllocBudget = 902

// TestLightPipelineAllocBudget pins the per-build allocation count of the
// BenchmarkLightPipeline workload.
func TestLightPipelineAllocBudget(t *testing.T) {
	sim, trees := benchWorkload(t)
	run := func() {
		if _, err := BuildDistributed(sim, trees, DistOptions{Seed: 7}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs > lightPipelineAllocBudget {
		t.Fatalf("light pipeline build allocates %v/op, budget %d", allocs, lightPipelineAllocBudget)
	}
}

// buildShiftsFixture sets up BuildDistributed's builder, runs every phase
// once to warm all buffers, and returns the builder ready for a shifts-down
// flood re-run (the flood is idempotent: it recomputes the same final DFS
// intervals).
func buildShiftsFixture(tb testing.TB) *distBuilder {
	tb.Helper()
	sim, trees := benchWorkload(tb)
	b := newDistBuilder(sim, trees, DistOptions{Seed: 7})
	for _, ph := range b.phases() {
		if err := ph.run(); err != nil {
			tb.Fatal(err)
		}
	}
	return b
}

// TestShiftsDownSteadyStateAllocFree pins that a warm shifts-down flood -
// the representative per-vertex handler regime of the tree-routing pipeline
// - allocates nothing: typed payloads ride the wire inline, inboxes and
// edge queues recycle, the kickoff schedule is rebuilt in place, and the
// step function is a bound method, not a per-phase closure.
func TestShiftsDownSteadyStateAllocFree(t *testing.T) {
	b := buildShiftsFixture(t)
	var fn congest.StepFunc = b.stepShiftsDown
	run := func() {
		if b.sim.Run(b.schedule(isPortal), b.cap, fn) >= b.cap {
			t.Fatal("shifts-down flood did not converge")
		}
	}
	for i := 0; i < 2; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("steady-state shifts-down flood allocates %v/op, want 0", allocs)
	}
}
