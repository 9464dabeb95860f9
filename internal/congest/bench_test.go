package congest

// Micro-benchmarks of the round engine's hot path, and the tier-1 tests that
// pin their allocation contracts: each benchmark reports allocations plus
// the simulated rounds, so an accidental behaviour change (more or fewer
// rounds for the same workload) is as visible as a slowdown.
//
// Every workload constructs the simulator once and returns a Run of it: the
// measured quantity is the steady-state cost of Run itself, not of building
// the scratch state (which is allocated once and recycled across rounds).

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"lowmemroute/internal/faults"
	"lowmemroute/internal/graph"
)

// reportPeakHeap reports the post-GC live heap as the host-measured
// peak_heap_bytes metric.
func reportPeakHeap(b *testing.B) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc), "peak_heap_bytes")
}

// floodWorkload is the all-active load: every vertex of a side×side torus
// is active every round and sends one word to each neighbor, for a Run of
// the given number of rounds. This is the regime of the Bellman-Ford
// cluster growth and the hopset searches (many active vertices, every edge
// busy).
func floodWorkload(side, rounds int, opts ...Option) (*Simulator, func()) {
	g := graph.Torus(side, side, 1, rand.New(rand.NewSource(1)))
	s := NewTopo(g, opts...)
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	step := func(v int, ctx *Ctx) {
		if ctx.Round() < rounds-1 {
			for _, nb := range neighbors(s.Topo(), v) {
				ctx.Send(int(nb), Payload{}, 1)
			}
			ctx.Wake()
		}
	}
	return s, func() { s.Run(all, rounds, step) }
}

// floodFaultPlan turns on every fault class for the 32×32 flood: drops
// (retransmitted once, then lost), delays, duplicates, a crash window that holds the
// traffic into one vertex (it opens in round 2 of the first Run and spans
// every later one) and a partition, from round 1 on, whose cut edges are
// discarded.
func floodFaultPlan() *faults.Plan {
	return &faults.Plan{
		Seed: 7, Drop: 0.1, Delay: 1, Duplicate: 0.05, RetryBudget: 1,
		Crashes:    []faults.Crash{{Vertex: 33, From: 2, Until: 1 << 40}},
		Partitions: []faults.Partition{{Members: []int{0, 1, 32}, From: 1, Until: faults.Forever}},
	}
}

// sparseWorkload is the few-active load: a single token walks 64 hops of a
// long path, so each round has exactly one active vertex and one busy edge
// while n-1 vertices stay idle. Per-round cost must be O(active), not O(n).
func sparseWorkload() (*Simulator, func()) {
	const n, hops = 16384, 64
	g := graph.Path(n, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := NewTopo(g)
	start := []int{0}
	step := func(v int, ctx *Ctx) {
		if v < hops {
			ctx.Send(v+1, Payload{}, 1)
		}
	}
	return s, func() { s.Run(start, hops+1, step) }
}

// deliveryWorkload exercises the bandwidth-pacing path: a burst of large
// messages on few capacity-limited edges keeps the edge queues backlogged
// for many rounds, so the cost is queue draining (including the
// partial-transmission q.sent path), not step execution.
func deliveryWorkload() (*Simulator, func()) {
	const n = 16
	const burst = 8
	const bigWords = 5 // > capacity: every message crosses in 3 rounds
	g := graph.Star(n, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := NewTopo(g, WithEdgeCapacity(2))
	leaves := make([]int, 0, n-1)
	for v := 1; v < n; v++ {
		leaves = append(leaves, v)
	}
	step := func(v int, ctx *Ctx) {
		if v != 0 && ctx.Round() == 0 {
			for j := 0; j < burst; j++ {
				ctx.Send(0, Payload{}, bigWords)
			}
		}
	}
	return s, func() { s.Run(leaves, 200, step) }
}

// benchRun times b.N steady-state Runs, after one untimed Run has sized the
// rings, inboxes and worklists, and reports the simulated rounds and
// delivered messages per Run.
func benchRun(b *testing.B, s *Simulator, run func()) {
	run()
	rounds, msgs := s.Rounds(), s.Messages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Rounds()-rounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(s.Messages()-msgs)/float64(b.N), "msgs/op")
}

// BenchmarkRunFlood: 1024 vertices, 2048 edges, 8 rounds; at GOMAXPROCS > 1
// every round forks both phases.
func BenchmarkRunFlood(b *testing.B) {
	s, run := floodWorkload(32, 8)
	benchRun(b, s, run)
	reportPeakHeap(b)
}

// BenchmarkRunFloodFaults is the flood under floodFaultPlan: the fault
// hooks' cost on top of BenchmarkRunFlood.
func BenchmarkRunFloodFaults(b *testing.B) {
	s, run := floodWorkload(32, 8, WithFaults(floodFaultPlan()))
	benchRun(b, s, run)
	reportPeakHeap(b)
}

func BenchmarkRunSparse(b *testing.B) {
	s, run := sparseWorkload()
	benchRun(b, s, run)
	reportPeakHeap(b)
}

func BenchmarkDelivery(b *testing.B) {
	s, run := deliveryWorkload()
	benchRun(b, s, run)
}

// TestBenchWorkloads pins the simulated rounds, delivered messages and
// fault counters of each benchmark workload's Run exactly, and that a warm
// sparse or delivery Run allocates nothing. The flood's allocations depend
// on the worker count; TestForkedRunAllocsIndependentOfRounds covers them.
func TestBenchWorkloads(t *testing.T) {
	for _, w := range []struct {
		name             string
		workload         func() (*Simulator, func())
		rounds, messages int64
		faults           faults.Counters
		allocFree        bool
	}{
		{"flood", func() (*Simulator, func()) { return floodWorkload(32, 8) }, 8, 28672, faults.Counters{}, false},
		{"flood-faults", func() (*Simulator, func()) { return floodWorkload(32, 8, WithFaults(floodFaultPlan())) },
			8, 32297, faults.Counters{Dropped: 3065, Retried: 2804, Lost: 261, Duplicated: 1439,
				DelayRounds: 14165, Discarded: 90, RetryWords: 3065}, false},
		{"sparse", sparseWorkload, 65, 64, faults.Counters{}, true},
		{"delivery", deliveryWorkload, 21, 120, faults.Counters{}, true},
	} {
		s, run := w.workload()
		run()
		if s.Rounds() != w.rounds || s.Messages() != w.messages {
			t.Errorf("%s: Run took %d rounds and delivered %d messages, want %d and %d",
				w.name, s.Rounds(), s.Messages(), w.rounds, w.messages)
		}
		if got := s.FaultCounters(); got != w.faults {
			t.Errorf("%s: fault counters %+v, want %+v", w.name, got, w.faults)
		}
		if !w.allocFree {
			continue
		}
		run()
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("%s: steady-state Run allocates %v/op, want 0", w.name, allocs)
		}
	}
}

// TestForkedRunAllocsIndependentOfRounds pins that a forked Run allocates
// per Run, not per round: its worker pool starts once per Run and a fork
// hands it prebound tasks, so doubling the rounds of a flood that forks
// every round leaves the allocation count unchanged. The count is the
// fewest mallocs of any of 50 Runs, not testing.AllocsPerRun's mean: the
// runtime sometimes allocates a fresh goroutine for a Run's worker (a dead
// one is reused only from the same P's free list) and its background work
// lands in some samples, and neither depends on the round count.
func TestForkedRunAllocsIndependentOfRounds(t *testing.T) {
	const rounds = 8
	allocs := func(rounds int) uint64 {
		s, run := floodWorkload(33, rounds, WithWorkers(2))
		run()
		requireForked(t, s, 2)
		var ms runtime.MemStats
		fewest := uint64(math.MaxUint64)
		for i := 0; i < 50; i++ {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			run()
			runtime.ReadMemStats(&ms)
			fewest = min(fewest, ms.Mallocs-before)
		}
		return fewest
	}
	if short, long := allocs(rounds), allocs(2*rounds); short != long {
		t.Fatalf("forked flood allocates %d times per Run over %d rounds but %d times over %d rounds",
			short, rounds, long, 2*rounds)
	}
}
