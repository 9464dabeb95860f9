package traffic

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/obs"
	"lowmemroute/internal/tz"
)

func testEngine(t *testing.T, n int) *dataplane.Engine {
	t.Helper()
	g, err := graph.Generate(graph.FamilyErdosRenyi, n, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := tz.Build(graph.FromGraph(g), tz.Options{K: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return dataplane.NewEngine(dataplane.Compile(s.Scheme))
}

// TestStreamDeterminism pins the splitmix64 stream: same (seed, worker) =>
// same sequence; different workers => different sequences.
func TestStreamDeterminism(t *testing.T) {
	a, b := NewStream(42, 0), NewStream(42, 0)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	c, d := NewStream(42, 1), NewStream(42, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if c.Next() == d.Next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("distinct workers collide %d/100 times", same)
	}
}

// TestZipfDistribution checks the sampler's two contracts: skew 0 is
// uniform, and positive skew concentrates mass on low ranks with the
// frequency ratio between rank 0 and rank 9 near the analytic 10^s.
func TestZipfDistribution(t *testing.T) {
	const n = 64
	const draws = 200000
	for _, s := range []float64{0, 1} {
		z := NewZipf(n, s)
		rng := NewStream(7, 0)
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			r := z.Rank(rng.Next())
			if r < 0 || r >= n {
				t.Fatalf("skew %v: rank %d out of range", s, r)
			}
			counts[r]++
		}
		if s == 0 {
			want := float64(draws) / n
			for r, c := range counts {
				if math.Abs(float64(c)-want) > want/3 {
					t.Fatalf("uniform: rank %d count %d, want ~%.0f", r, c, want)
				}
			}
			continue
		}
		ratio := float64(counts[0]) / float64(counts[9])
		want := math.Pow(10, s)
		if ratio < want*0.7 || ratio > want*1.3 {
			t.Fatalf("skew %v: rank0/rank9 ratio %.2f, want ~%.2f", s, ratio, want)
		}
	}
}

// TestRunDeterministicWorkload replays the same budget-bounded config twice
// and checks the aggregate workload counters match exactly — the package's
// replayability contract.
func TestRunDeterministicWorkload(t *testing.T) {
	eng := testEngine(t, 96)
	cfg := Config{Workers: 3, Batch: 64, Skew: 0.9, Seed: 5, Lookups: 50000}
	a := Run(eng, cfg, nil)
	b := Run(eng, cfg, nil)
	if a.Lookups != cfg.Lookups || b.Lookups != cfg.Lookups {
		t.Fatalf("budget not honored: %d / %d, want %d", a.Lookups, b.Lookups, cfg.Lookups)
	}
	if a.Arrived != b.Arrived || a.NoRoute != b.NoRoute {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
	if a.NoRoute != 0 {
		t.Fatalf("connected scheme produced %d no-route decisions", a.NoRoute)
	}
}

// TestRunRecordsLatency checks every lookup lands in the histogram (RecordN
// batch accounting) and the quantile surface is usable.
func TestRunRecordsLatency(t *testing.T) {
	eng := testEngine(t, 64)
	lat := obs.NewRegistry().Histogram("traffic_lookup_seconds", 1e-9)
	rep := Run(eng, Config{Workers: 2, Batch: 100, Seed: 3, Lookups: 10000}, lat)
	snap := lat.Snapshot()
	if snap.Count != rep.Lookups {
		t.Fatalf("histogram count %d, lookups %d", snap.Count, rep.Lookups)
	}
	if q := snap.Quantile(0.99); q < 0 {
		t.Fatalf("p99 %d", q)
	}
}

// TestRunRateThrottle checks the pacing loop roughly honors Rate (generous
// bounds — the test must not flake on a loaded host).
func TestRunRateThrottle(t *testing.T) {
	eng := testEngine(t, 64)
	rep := Run(eng, Config{Workers: 1, Batch: 50, Seed: 3, Lookups: 2000, Rate: 20000}, nil)
	if got := rep.Rate(); got > 40000 {
		t.Fatalf("throttle to 20k lookups/s ran at %.0f", got)
	}
}

// TestRunPartialFinalBatch checks a budget that does not divide evenly by
// (workers*batch) is consumed exactly.
func TestRunPartialFinalBatch(t *testing.T) {
	eng := testEngine(t, 64)
	rep := Run(eng, Config{Workers: 3, Batch: 64, Seed: 1, Lookups: 1001}, nil)
	if rep.Lookups != 1001 {
		t.Fatalf("lookups %d, want 1001", rep.Lookups)
	}
}

// TestRunBatchAllocFree pins that a warm traffic batch (Zipf draws, a table
// pin, one LookupBatch, the latency record) allocates nothing: a 64-batch
// Run allocates exactly as often as a 1-batch Run. Each count is the fewest
// mallocs of any of 20 Runs, because a Run's worker goroutine sometimes
// needs a fresh goroutine from the runtime.
func TestRunBatchAllocFree(t *testing.T) {
	eng := testEngine(t, 128)
	lat := obs.NewRegistry().Histogram("traffic_lookup_seconds", 1e-9)
	allocs := func(batches int64) uint64 {
		cfg := Config{Workers: 1, Batch: 256, Skew: 1.0, Seed: 17, Lookups: 256 * batches}
		var ms runtime.MemStats
		fewest := uint64(math.MaxUint64)
		for i := 0; i < 20; i++ {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			Run(eng, cfg, lat)
			runtime.ReadMemStats(&ms)
			fewest = min(fewest, ms.Mallocs-before)
		}
		return fewest
	}
	if one, many := allocs(1), allocs(64); one != many {
		t.Fatalf("a 1-batch Run allocates %d times, a 64-batch Run %d times", one, many)
	}
}
