package core

import (
	"math/rand"
	"runtime"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

// buildGrowthFixture replicates Build up to (but not including) the
// approximate-cluster phase and returns a warm clusterGrowth workspace plus
// one high level with live roots. This isolates the grow() handler regime -
// the densest multi-root Bellman-Ford traffic of the construction - from
// the allocating tree-assembly output stage. Workers are pinned to 1 so the
// alloc figures measure the handler layer, not goroutine spawns.
func buildGrowthFixture(tb testing.TB) (*builder, int, []int) {
	tb.Helper()
	g, err := graph.Generate(graph.FamilyErdosRenyi, 220, rand.New(rand.NewSource(5)))
	if err != nil {
		tb.Fatal(err)
	}
	sim := congest.NewTopo(graph.FromGraph(g), congest.WithSeed(5), congest.WithWorkers(1))
	o := (&Options{K: 4, Seed: 5}).withDefaults()
	b := &builder{
		sim: sim, topo: sim.Topo(), n: g.N(), k: o.K, o: o,
		rng:         rand.New(rand.NewSource(o.Seed)),
		phaseRounds: make(map[string]int64),
	}
	b.sampleHierarchy()
	for _, phase := range []func() error{
		b.exactPivots, b.lowClusters, b.buildHopset, b.approxPivots,
	} {
		if err := phase(); err != nil {
			tb.Fatal(err)
		}
	}
	for i := b.kHalf; i < b.k; i++ {
		var roots []int
		for _, v := range b.levels[i] {
			if b.topOf[v] == i {
				roots = append(roots, v)
			}
		}
		if len(roots) > 0 {
			b.cg = newClusterGrowth(b)
			return b, i, roots
		}
	}
	tb.Fatal("no high level with roots; adjust fixture size or seed")
	return nil, 0, nil
}

// BenchmarkClusterGrowth measures one warm multi-root approximate-cluster
// growth: growth iterations, hopset broadcast passes, path-recovery joins,
// and the final limited exploration, all on the recycled workspace.
func BenchmarkClusterGrowth(b *testing.B) {
	bb, level, roots := buildGrowthFixture(b)
	if err := bb.cg.grow(level, roots); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bb.cg.grow(level, roots); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Post-GC live heap, host-measured: bench-diff tolerance-gates it so a
	// workspace memory regression shows up without GC wobble failing runs.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc), "peak_heap_bytes")
}

// TestClusterGrowthSteadyStateAllocFree pins that a warm cluster growth
// allocates nothing: estimates truncate in place, the dirty list and
// reverse index recycle, and all wire traffic rides typed payloads through
// the simulator arena.
func TestClusterGrowthSteadyStateAllocFree(t *testing.T) {
	bb, level, roots := buildGrowthFixture(t)
	run := func() {
		if err := bb.cg.grow(level, roots); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("steady-state cluster growth allocates %v/op, want 0", allocs)
	}
}
