package lowmemroute

// Benchmark harness: one benchmark per table of the paper (the paper has no
// figures), plus the supplementary sweeps of DESIGN.md's experiment index
// and micro-benchmarks of the substrates. Each table benchmark reports the
// paper's columns (rounds, table words, label words, memory words, stretch)
// as custom metrics next to the usual wall-clock numbers.
//
// The authoritative, human-readable reproductions are produced by
// cmd/routebench and cmd/treebench; these benchmarks regenerate the same
// rows under `go test -bench`.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/core"
	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/hopset"
	"lowmemroute/internal/metrics"
	"lowmemroute/internal/obs"
	"lowmemroute/internal/treeroute"
)

// BenchmarkTable1 regenerates the paper's Table 1 rows: every general-graph
// scheme's construction on the same instance, reporting rounds, sizes,
// stretch and per-vertex memory.
func BenchmarkTable1(b *testing.B) {
	const n = 192
	for _, k := range []int{2, 3} {
		for _, scheme := range []string{"tz", "lp15", "en16b", "paper"} {
			b.Run(fmt.Sprintf("k=%d/%s", k, scheme), func(b *testing.B) {
				reg := obs.NewRegistry()
				var last metrics.SchemeRow
				for i := 0; i < b.N; i++ {
					rows, err := metrics.RunTable1(metrics.Table1Config{
						Family:  graph.FamilyErdosRenyi,
						N:       n,
						K:       k,
						Seed:    1,
						Pairs:   100,
						Schemes: []string{scheme},
						Metrics: reg,
					})
					if err != nil {
						b.Fatal(err)
					}
					last = rows[0]
				}
				b.ReportMetric(float64(last.Rounds), "rounds")
				b.ReportMetric(float64(last.TableWords), "table-words")
				b.ReportMetric(float64(last.LabelWords), "label-words")
				b.ReportMetric(last.Stretch.Max, "stretch-max")
				b.ReportMetric(float64(last.PeakMem), "mem-words")
				// Lookup latency percentiles over every Route call of the run;
				// the "-ns" suffix marks them host-measured.
				if s := metrics.LookupHist(reg).Snapshot(); s.Count > 0 {
					b.ReportMetric(float64(s.Quantile(0.5)), "p50-ns")
					b.ReportMetric(float64(s.Quantile(0.99)), "p99-ns")
					b.ReportMetric(float64(s.Quantile(0.999)), "p999-ns")
				}
				// Post-GC live heap; host-measured like the -ns quantiles.
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				b.ReportMetric(float64(ms.HeapAlloc), "peak_heap_bytes")
			})
		}
	}
}

// BenchmarkTable2 regenerates the paper's Table 2 rows: the tree-routing
// schemes on a deep spanning tree of the same network.
func BenchmarkTable2(b *testing.B) {
	const n = 512
	for _, scheme := range []string{"en16b-tree", "tz-tree", "paper-tree"} {
		b.Run(scheme, func(b *testing.B) {
			var last metrics.TreeRow
			for i := 0; i < b.N; i++ {
				rows, err := metrics.RunTable2(metrics.Table2Config{
					Family:  graph.FamilyErdosRenyi,
					N:       n,
					Seed:    2,
					Pairs:   100,
					Schemes: []string{scheme},
				})
				if err != nil {
					b.Fatal(err)
				}
				last = rows[0]
			}
			if !last.Exact {
				b.Fatal("routing not exact")
			}
			b.ReportMetric(float64(last.Rounds), "rounds")
			b.ReportMetric(float64(last.TableWords), "table-words")
			b.ReportMetric(float64(last.LabelWords), "label-words")
			b.ReportMetric(float64(last.PeakMem), "mem-words")
		})
	}
}

// BenchmarkMemoryVsK is experiment E3 (Table 1, penultimate line): the
// paper's per-vertex memory versus the EN16b baseline as k grows.
func BenchmarkMemoryVsK(b *testing.B) {
	const n = 192
	for _, k := range []int{2, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var last metrics.MemoryPoint
			for i := 0; i < b.N; i++ {
				pts, err := metrics.SweepMemoryVsK(graph.FamilyErdosRenyi, n, []int{k}, 3)
				if err != nil {
					b.Fatal(err)
				}
				last = pts[0]
			}
			b.ReportMetric(float64(last.PaperPeak), "paper-mem-words")
			b.ReportMetric(float64(last.BaselinePeak), "en16b-mem-words")
		})
	}
}

// BenchmarkRoundsVsN is experiment E4 (Theorem 2's Õ(√n + D) rounds): the
// paper's tree routing on deep trees of growing networks.
func BenchmarkRoundsVsN(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var last metrics.RoundsPoint
			for i := 0; i < b.N; i++ {
				pts, err := metrics.SweepTreeRoundsVsN(graph.FamilyErdosRenyi, []int{n}, 4)
				if err != nil {
					b.Fatal(err)
				}
				last = pts[0]
			}
			b.ReportMetric(float64(last.Rounds), "rounds")
			b.ReportMetric(float64(last.Height), "tree-height")
			b.ReportMetric(float64(last.D), "hop-diameter")
		})
	}
}

// BenchmarkMultiTree is experiment E6 (Theorem 2, second assertion):
// parallel construction of s trees versus one at a time.
func BenchmarkMultiTree(b *testing.B) {
	const n = 256
	for _, s := range []int{2, 8} {
		b.Run(fmt.Sprintf("trees=%d", s), func(b *testing.B) {
			var last metrics.MultiTreePoint
			for i := 0; i < b.N; i++ {
				pts, err := metrics.RunMultiTree(graph.FamilyErdosRenyi, n, []int{s}, 5)
				if err != nil {
					b.Fatal(err)
				}
				last = pts[0]
			}
			b.ReportMetric(float64(last.ParallelRounds), "parallel-rounds")
			b.ReportMetric(float64(last.SequentialSum), "sequential-rounds")
		})
	}
}

// BenchmarkHopset is experiment E7 (Theorem 1 / Lemma 2): hopset size,
// arboricity and Bellman-Ford acceleration per hierarchy depth.
func BenchmarkHopset(b *testing.B) {
	for _, kappa := range []int{2, 4} {
		b.Run(fmt.Sprintf("kappa=%d", kappa), func(b *testing.B) {
			var last metrics.HopsetPoint
			for i := 0; i < b.N; i++ {
				pts, err := metrics.RunHopsetAblation(graph.FamilyErdosRenyi, 192, 0.25, []int{kappa}, 6)
				if err != nil {
					b.Fatal(err)
				}
				last = pts[0]
			}
			b.ReportMetric(float64(last.Edges), "hopset-edges")
			b.ReportMetric(float64(last.Arboricity), "arboricity")
			b.ReportMetric(float64(last.IterWith), "bf-iters")
		})
	}
}

// --- Micro-benchmarks of the substrates ---

func benchGraph(b *testing.B, n int) *graph.CSR {
	b.Helper()
	g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, n, rand.New(rand.NewSource(9)))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkDijkstra(b *testing.B) {
	g := benchGraph(b, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Dijkstra(g, i%g.N())
	}
}

func BenchmarkBoundedBellmanFord(b *testing.B) {
	g := benchGraph(b, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.BoundedBellmanFord(g, i%g.N(), 8)
	}
}

func BenchmarkCongestFlood(b *testing.B) {
	topo := benchGraph(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := congest.NewTopo(topo)
		if _, err := hopset.NewExplorer(sim).Explore([]hopset.Source{{Root: 0, At: 0, Dist: 0}},
			hopset.ExploreOptions{Hops: 6}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeRouteCentralized(b *testing.B) {
	tr, err := graph.SpanningTree(benchGraph(b, 4096), 0, "dfs", rand.New(rand.NewSource(10)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		treeroute.BuildCentralized(tr)
	}
}

func BenchmarkTreeRouteDistributed(b *testing.B) {
	topo := benchGraph(b, 1024)
	tr, err := graph.SpanningTree(topo, 0, "dfs", rand.New(rand.NewSource(11)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := congest.NewTopo(topo)
		if _, err := treeroute.BuildDistributed(sim, []*graph.Tree{tr},
			treeroute.DistOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreBuild(b *testing.B) {
	topo := benchGraph(b, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := congest.NewTopo(topo)
		if _, err := core.Build(sim, core.Options{K: 3, Seed: 12}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoutePhase(b *testing.B) {
	g := benchGraph(b, 512)
	sim := congest.NewTopo(g)
	s, err := core.Build(sim, core.Options{K: 3, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	tab := dataplane.Compile(s.Scheme)
	r := rand.New(rand.NewSource(14))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		if _, _, err := tab.Route(u, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild measures the tracing layer's overhead on the full facade
// build: the untraced variant is the hot-path baseline (one nil check per
// round / span site), the traced variant records the complete span tree and
// round series. Allocation counts and simulation rounds are reported so
// regressions in either show up in -benchmem runs.
func BenchmarkBuild(b *testing.B) {
	net, err := Generate(ErdosRenyi, 192, 15)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("untraced", func(b *testing.B) {
		b.ReportAllocs()
		var rep Report
		for i := 0; i < b.N; i++ {
			s, err := Build(net, Config{K: 2, Seed: 15})
			if err != nil {
				b.Fatal(err)
			}
			rep = s.Report()
		}
		b.ReportMetric(float64(rep.Rounds), "rounds")
	})
	b.Run("traced", func(b *testing.B) {
		b.ReportAllocs()
		var rep Report
		for i := 0; i < b.N; i++ {
			s, err := Build(net, Config{K: 2, Seed: 15, Trace: NewTracer()})
			if err != nil {
				b.Fatal(err)
			}
			rep = s.Report()
		}
		b.ReportMetric(float64(rep.Rounds), "rounds")
	})
}

func BenchmarkFacadeBuild(b *testing.B) {
	net, err := Generate(ErdosRenyi, 192, 15)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(net, Config{K: 2, Seed: 15}); err != nil {
			b.Fatal(err)
		}
	}
}
