package traffic

import (
	"math/rand"
	"runtime"
	"testing"

	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/obs"
	"lowmemroute/internal/tz"
)

func benchEngine(b *testing.B) *dataplane.Engine {
	b.Helper()
	g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, 512, rand.New(rand.NewSource(17)))
	if err != nil {
		b.Fatal(err)
	}
	s, err := tz.Build(g, tz.Options{K: 3, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	return dataplane.NewEngine(dataplane.Compile(s.Scheme))
}

// BenchmarkTraffic drives the full generator (Zipf draws + batched lookups
// across GOMAXPROCS workers) with a budget of exactly b.N lookups, so ns/op
// is the end-to-end per-lookup cost and the latency quantiles come from the
// same internal/obs histogram routebench -traffic reports.
func BenchmarkTraffic(b *testing.B) {
	eng := benchEngine(b)
	lat := obs.NewRegistry().Histogram("traffic_lookup_seconds", 1e-9)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := Run(eng, Config{
		Workers: runtime.GOMAXPROCS(0),
		Batch:   256,
		Skew:    1.0,
		Seed:    17,
		Lookups: int64(b.N),
	}, lat); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	s := lat.Snapshot()
	b.ReportMetric(float64(s.Quantile(0.5)), "p50-ns")
	b.ReportMetric(float64(s.Quantile(0.99)), "p99-ns")
	b.ReportMetric(float64(s.Quantile(0.999)), "p999-ns")
}
