package congest

// Micro-benchmarks of the round engine's hot path. These are the inputs of
// `make bench-json` (the benchmark-regression harness): each reports
// allocations so steady-state allocation regressions fail the bench diff,
// plus the simulated rounds so an accidental behaviour change (more or fewer
// rounds for the same workload) is equally visible.
//
// All three construct the simulator once and run the workload b.N times: the
// measured quantity is the steady-state cost of Run itself, not of building
// the scratch state (which is allocated once and recycled across rounds).

import (
	"math/rand"
	"runtime"
	"testing"

	"lowmemroute/internal/graph"
)

// reportPeakHeap reports the post-GC live heap as the host-measured
// peak_heap_bytes metric: bench-diff compares it with tolerance (like the
// -ns latency quantiles), so a simulator memory regression fails the diff
// while GC wobble does not.
func reportPeakHeap(b *testing.B) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc), "peak_heap_bytes")
}

// BenchmarkRunFlood is the all-active load: every vertex of a torus is
// active every round and sends one word to each neighbor for a fixed number
// of rounds. This is the regime of the Bellman-Ford cluster growth and the
// hopset searches (many active vertices, every edge busy).
func BenchmarkRunFlood(b *testing.B) {
	const side = 32 // 1024 vertices, 2048 edges
	g := graph.Torus(side, side, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := newGraphSim(g)
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	const floodRounds = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(all, floodRounds, func(v int, ctx *Ctx) {
			if ctx.Round() < floodRounds-1 {
				for _, nb := range neighbors(s.Topo(), v) {
					ctx.Send(int(nb), Payload{}, 1)
				}
				ctx.Wake()
			}
		})
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Rounds())/float64(b.N), "rounds/op")
	b.ReportMetric(float64(s.Messages())/float64(b.N), "msgs/op")
	reportPeakHeap(b)
}

// BenchmarkRunSparse is the few-active load: a single token walks a long
// path, so each round has exactly one active vertex and one busy edge while
// n-1 vertices stay idle. Per-round cost must be O(active), not O(n), and
// the steady-state round loop must not allocate at all.
func BenchmarkRunSparse(b *testing.B) {
	const n = 16384
	g := graph.Path(n, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := newGraphSim(g)
	const hops = 64
	start := []int{0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(start, hops+1, func(v int, ctx *Ctx) {
			if v < hops {
				ctx.Send(v+1, Payload{}, 1)
			}
		})
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Rounds())/float64(b.N), "rounds/op")
	reportPeakHeap(b)
}

// BenchmarkDelivery exercises the bandwidth-pacing path: a burst of large
// messages on few capacity-limited edges keeps the edge queues backlogged
// for many rounds, so the cost measured is queue draining (including the
// partial-transmission q.sent path), not step execution.
func BenchmarkDelivery(b *testing.B) {
	const n = 16
	g := graph.Star(n, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := newGraphSim(g, WithEdgeCapacity(2))
	leaves := make([]int, 0, n-1)
	for v := 1; v < n; v++ {
		leaves = append(leaves, v)
	}
	const burst = 8
	const bigWords = 5 // > capacity: every message crosses in 3 rounds
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(leaves, 200, func(v int, ctx *Ctx) {
			if v != 0 && ctx.Round() == 0 {
				for j := 0; j < burst; j++ {
					ctx.Send(0, Payload{}, bigWords)
				}
			}
		})
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Rounds())/float64(b.N), "rounds/op")
	b.ReportMetric(float64(s.Messages())/float64(b.N), "msgs/op")
}
