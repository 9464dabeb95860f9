package core

import (
	"math/rand"
	"runtime"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/hopset"
)

// buildGrowthFixture replicates Build up to (but not including) the
// approximate-cluster phase and returns the builder, whose limited
// Bellman-Ford kernel the approximate pivots have warmed, plus one high
// level with live roots. This isolates the kernel's handler regime - the
// densest multi-root Bellman-Ford traffic of the construction - from the
// allocating tree-assembly output stage. Workers are pinned to 1 so the
// alloc figures measure the handler layer, not goroutine spawns.
func buildGrowthFixture(tb testing.TB) (*builder, int, []int) {
	tb.Helper()
	g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, 220, rand.New(rand.NewSource(5)))
	if err != nil {
		tb.Fatal(err)
	}
	sim := congest.NewTopo(g, congest.WithWorkers(1))
	o := (&Options{K: 4, Seed: 5}).withDefaults()
	b := newBuilder(sim, o)
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
			return b, i, roots
		}
	}
	tb.Fatal("no high level with roots; adjust fixture size or seed")
	return nil, 0, nil
}

// BenchmarkClusterGrowth measures one warm multi-root approximate-cluster
// growth: the kernel's iterations and hopset broadcast passes, path-recovery
// joins, and the final limited exploration, all on recycled workspaces.
func BenchmarkClusterGrowth(b *testing.B) {
	bb, level, roots := buildGrowthFixture(b)
	if err := bb.growClusters(level, roots); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bb.growClusters(level, roots); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Post-GC live heap, host-measured.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc), "peak_heap_bytes")
}

// TestClusterGrowthSteadyStateAllocFree pins that a warm cluster growth
// allocates nothing, and that the approximate pivots' run of the same
// limited Bellman-Ford kernel, which precedes it in Build, does not either:
// an unlimited run from the pivots' shared-root seeds, then the growth's
// kernel run under per-vertex limits, its path-recovery joins and the final
// limited exploration. Estimates truncate in place, the worklist recycles,
// and all wire traffic rides typed payloads.
func TestClusterGrowthSteadyStateAllocFree(t *testing.T) {
	bb, level, roots := buildGrowthFixture(t)
	var seeds []hopset.Source
	for _, v := range bb.levels[bb.k-1] {
		seeds = append(seeds, hopset.Source{Root: pivotSet, At: v})
	}
	run := func() {
		if _, err := bb.bf.Run(seeds, nil, 0); err != nil {
			t.Fatal(err)
		}
		if err := bb.growClusters(level, roots); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("steady-state pivots and cluster growth allocate %v/op, want 0", allocs)
	}
}

// grid400K3 is the serve and build benchmark workloads' first grid400 k=3
// instance: its topology and the seed it is built with.
func grid400K3(tb testing.TB) (*graph.CSR, int64) {
	tb.Helper()
	const seed = 1_000_003
	topo, err := graph.GenerateCSR(graph.FamilyGrid, 400, rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	return topo, seed
}

// BenchmarkGrid400Build measures whole builds of the grid400 k=3 instance,
// each on a fresh simulator (booted outside the timer): ns, bytes and
// allocations per build, plus the garbage collections a build triggers.
func BenchmarkGrid400Build(b *testing.B) {
	topo, seed := grid400K3(b)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gcs := ms.NumGC
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim := congest.NewTopo(topo)
		b.StartTimer()
		if _, err := Build(sim, Options{K: 3, Seed: seed}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.NumGC-gcs)/float64(b.N), "gc/op")
}

// grid400K3AllocBudget is what one grid400 k=3 Build may allocate: the
// 5.42 MB measured when this pin was set (the same at GOMAXPROCS 1 and 2)
// plus 10%. A change that needs more must say why and move the pin.
const grid400K3AllocBudget = 5_970_000

// TestBuildAllocBudget pins the build's allocation diet: one Build of the
// grid400 k=3 instance, on a fresh simulator, allocates at most
// grid400K3AllocBudget bytes.
func TestBuildAllocBudget(t *testing.T) {
	topo, seed := grid400K3(t)
	var ms runtime.MemStats
	measure := func() uint64 {
		sim := congest.NewTopo(topo)
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := Build(sim, Options{K: 3, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	measure() // first-use costs outside the build (package state, the CPU count's pools)
	if got := measure(); got > grid400K3AllocBudget {
		t.Fatalf("grid400 k=3 Build allocated %d bytes, budget %d", got, grid400K3AllocBudget)
	}
}
