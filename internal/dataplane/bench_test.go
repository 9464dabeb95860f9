package dataplane

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"lowmemroute/internal/clusterroute"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/tz"
)

// benchScheme builds the mid-size TZ scheme of the forwarding benchmarks
// (Erdős–Rényi n=512, seed 17, k=3): they measure flattening and the
// forwarding walk, not construction.
func benchScheme(tb testing.TB) *clusterroute.Scheme {
	tb.Helper()
	g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, 512, rand.New(rand.NewSource(17)))
	if err != nil {
		tb.Fatal(err)
	}
	s, err := tz.Build(g, tz.Options{K: 3, Seed: 17})
	if err != nil {
		tb.Fatal(err)
	}
	return s.Scheme
}

func benchTable(tb testing.TB) *Table { return Compile(benchScheme(tb)) }

// BenchmarkCompile measures control-plane -> data-plane flattening; the
// member count is a simulation metric (deterministic for the fixed seed).
func BenchmarkCompile(b *testing.B) {
	s := benchScheme(b)
	b.ResetTimer()
	var tab *Table
	for i := 0; i < b.N; i++ {
		tab = Compile(s)
	}
	b.ReportMetric(float64(tab.MemberCount()), "members")
}

// BenchmarkLookupBatch is the single-worker forwarding floor: b.N counts
// individual lookups (the batch loop is inside), so ns/op is per-lookup —
// the ISSUE's ">= 1M lookups/sec" criterion reads directly as
// "ns/op < 1000" — and allocs/op must stay 0.
func BenchmarkLookupBatch(b *testing.B) {
	tab := benchTable(b)
	const batch = 256
	n := tab.N()
	dst := make([]Label, batch)
	rng := rand.New(rand.NewSource(1))
	for i := range dst {
		dst[i] = Label(rng.Intn(n))
	}
	out := make([]NextHop, batch)
	b.ReportAllocs()
	b.ResetTimer()
	src := 0
	for done := 0; done < b.N; done += batch {
		want := batch
		if left := b.N - done; left < want {
			want = left
		}
		tab.LookupBatch(src, dst[:want], out[:want])
		src++
		if src == n {
			src = 0
		}
	}
}

// BenchmarkLookupBatchParallel is the same workload fanned out over
// GOMAXPROCS goroutines sharing one immutable table — the near-linear
// scaling claim. ns/op is per-lookup across all workers.
func BenchmarkLookupBatchParallel(b *testing.B) {
	tab := benchTable(b)
	const batch = 256
	n := tab.N()
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(worker.Add(1))
		rng := rand.New(rand.NewSource(int64(w)))
		dst := make([]Label, batch)
		for i := range dst {
			dst[i] = Label(rng.Intn(n))
		}
		out := make([]NextHop, batch)
		src := (w * 37) % n
		for pb.Next() {
			// One pb.Next() = one lookup: walk the batch one entry at a
			// time so ns/op stays per-lookup, flushing through the batch
			// API every `batch` steps.
			tab.LookupBatch(src, dst, out)
			for i := 1; i < batch && pb.Next(); i++ {
			}
			src++
			if src == n {
				src = 0
			}
		}
	})
}

// BenchmarkEngineSwap measures the COW swap cost readers pay nothing for.
func BenchmarkEngineSwap(b *testing.B) {
	tab := benchTable(b)
	eng := NewEngine(tab)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Swap(eng.Table())
	}
}
