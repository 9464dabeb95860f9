// Command routebench regenerates the paper's Table 1 - the comparison of
// general-graph compact routing schemes (rounds, table size, label size,
// stretch, memory per vertex) - and the related sweeps (memory vs k,
// stretch distribution). See EXPERIMENTS.md for the experiment index.
//
// Usage:
//
//	routebench                            # Table 1 at defaults
//	routebench -n 256,512 -k 2,3 -family geometric
//	routebench -sweep k -n 512           # E3: memory vs k
//	routebench -sweep stretch -n 512 -k 3 # E5: stretch histogram
//	routebench -trace run.json            # E9: record phase spans + round series
//	routebench -trace run.json -trace-format chrome  # open in Perfetto
//	routebench -faults drop=0.05,seed=1 -schemes paper  # E10: lossy build
//	routebench -strict                    # exit 1 if any sampled pair fails
//	routebench -traffic -n 1024 -k 3      # E11: data-plane traffic generator
//	routebench -scale -family grid        # E12: memory-curve scale sweep
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"lowmemroute/internal/cliutil"
	"lowmemroute/internal/congest"
	"lowmemroute/internal/core"
	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/dataplane/traffic"
	"lowmemroute/internal/faults"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/metrics"
	"lowmemroute/internal/obs"
	"lowmemroute/internal/trace"
	"lowmemroute/internal/tz"
)

func main() {
	var (
		nList   = flag.String("n", "256", "comma-separated network sizes")
		kList   = flag.String("k", "2,3", "comma-separated stretch parameters")
		family  = flag.String("family", "erdos-renyi", "topology family (erdos-renyi, geometric, grid, torus, power-law, hypercube)")
		seed    = flag.Int64("seed", 1, "random seed")
		pairs   = flag.Int("pairs", 200, "sampled pairs for stretch measurement")
		sweep   = flag.String("sweep", "table1", "experiment: table1, k, stretch")
		schemes = flag.String("schemes", "", "comma-separated scheme filter (tz,lp15,en16b,paper); empty = all")

		tracePath   = flag.String("trace", "", "write a trace of the paper scheme's builds to this file ('-' = stdout); covers the table1 and stretch sweeps")
		traceFormat = flag.String("trace-format", "json", "trace export format: "+cliutil.TraceFormats)
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof, /debug/metrics, and Prometheus /metrics on this address (e.g. localhost:6060)")
		pprofHold   = flag.Duration("pprof-hold", 0, "keep the process (and its -pprof server) alive this long after the run, so scrapers can collect the final state")
		progress    = flag.Duration("progress", 0, "print a progress line (phase, rounds, msgs, heap, ETA) to stderr at this interval; 0 disables")

		faultSpec = flag.String("faults", "", "inject faults into the paper scheme's build, e.g. drop=0.05,delay=2,dup=0.01,seed=7,crash=3,17 (table1 and stretch sweeps)")
		strict    = flag.Bool("strict", false, "exit non-zero when any sampled pair fails to route")

		trafficMode     = flag.Bool("traffic", false, "E11: compile the scheme into the flat-array data plane and drive it with the deterministic Zipf traffic generator (overrides -sweep)")
		trafficWorkers  = flag.String("traffic-workers", "1,2,4", "comma-separated worker counts to sweep")
		trafficSkew     = flag.String("traffic-skew", "0,0.8,1.2", "comma-separated Zipf skews of the destination distribution (0 = uniform)")
		trafficBatch    = flag.Int("traffic-batch", 256, "lookups per LookupBatch call")
		trafficLookups  = flag.Int64("traffic-lookups", 1_000_000, "lookup budget per configuration; 0 = run until -traffic-duration")
		trafficDuration = flag.Duration("traffic-duration", 0, "wall-clock cap per configuration (0 = budget-bounded only)")
		trafficRate     = flag.Float64("traffic-rate", 0, "throttle to about this many lookups/sec across workers (0 = unthrottled)")

		scaleMode      = flag.Bool("scale", false, "E12: scale sweep on the streaming CSR substrate; one machine-readable row per (n,k) cell (overrides -sweep)")
		scaleN         = flag.String("scale-n", "256,512,1024", "comma-separated sizes for -scale (full builds are Õ(√n·n) messages: a 2^13 grid cell takes 15–88 s at k=3–2 and 0.4–1.4 GB peak RSS on a 2-CPU host, and host memory is the limit; probe larger substrates with -scale-probe)")
		scaleBudget    = flag.Duration("scale-budget", 0, "soft wall-clock budget for -scale; cells starting after it elapses are skipped and reported on stderr (0 = no budget)")
		scaleProbe     = flag.Int("scale-probe", 0, "boot the CSR substrate at this size and run one hop-bounded exploration instead of full builds (million-vertex memory check; overrides -sweep)")
		scaleProbeHops = flag.Int("scale-probe-hops", 64, "exploration hop budget for -scale-probe (0 = flood the whole graph)")

		shards = flag.Int("shards", 0, "parallel execution shards for -scale and -scale-probe; every stdout row is byte-identical at any shard count (0 = runtime default)")
	)
	flag.Parse()

	var plan *faults.Plan
	if *faultSpec != "" {
		p, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			fatalf("bad -faults: %v", err)
		}
		plan = p
	}

	reg := obs.NewRegistry()
	if *pprofAddr != "" {
		if _, err := cliutil.StartPprof(*pprofAddr, reg); err != nil {
			fatalf("pprof: %v", err)
		}
	}
	stopProgress := cliutil.StartProgress(os.Stderr, reg, *progress)
	var rec *trace.Recorder
	if *tracePath != "" {
		if err := cliutil.CheckTraceFormat(*traceFormat); err != nil {
			fatalf("trace: %v", err)
		}
		rec = trace.NewRecorder()
		rec.SetMeta("tool", "routebench")
		rec.SetMeta("family", *family)
		rec.SetMeta("seed", strconv.FormatInt(*seed, 10))
		if plan != nil && !plan.Empty() {
			rec.SetMeta("faults", plan.String())
		}
	}

	ns, err := parseInts(*nList)
	if err != nil {
		fatalf("bad -n: %v", err)
	}
	ks, err := parseInts(*kList)
	if err != nil {
		fatalf("bad -k: %v", err)
	}
	var schemeFilter []string
	if *schemes != "" {
		schemeFilter = strings.Split(*schemes, ",")
	}

	failures := 0
	switch {
	case *scaleProbe > 0:
		row, err := metrics.RunSubstrateProbe(metrics.ProbeConfig{
			Family: graph.Family(*family), N: *scaleProbe, Hops: *scaleProbeHops,
			Seed: *seed, Shards: *shards,
		})
		if err != nil {
			fatalf("scale-probe: %v", err)
		}
		fmt.Println(row.DeterministicLine())
		fmt.Fprintln(os.Stderr, row.HostLine())
	case *scaleMode:
		sns, err := parseInts(*scaleN)
		if err != nil {
			fatalf("bad -scale-n: %v", err)
		}
		runScale(graph.Family(*family), sns, ks, *seed, *scaleBudget, *shards, reg)
	case *trafficMode:
		tw, err := parseInts(*trafficWorkers)
		if err != nil {
			fatalf("bad -traffic-workers: %v", err)
		}
		tsk, err := parseFloats(*trafficSkew)
		if err != nil {
			fatalf("bad -traffic-skew: %v", err)
		}
		if *trafficLookups <= 0 && *trafficDuration <= 0 {
			fatalf("-traffic needs -traffic-lookups > 0 or -traffic-duration > 0")
		}
		runTraffic(graph.Family(*family), ns, ks, *seed, tw, tsk,
			*trafficBatch, *trafficLookups, *trafficDuration, *trafficRate)
	case *sweep == "table1":
		failures = runTable1(graph.Family(*family), ns, ks, *seed, *pairs, schemeFilter, rec, plan, reg)
	case *sweep == "k":
		if plan != nil && !plan.Empty() {
			fatalf("-faults supports the table1 and stretch sweeps only")
		}
		runMemorySweep(graph.Family(*family), ns, ks, *seed)
	case *sweep == "stretch":
		failures = runStretchHistogram(graph.Family(*family), ns, ks, *seed, *pairs, rec, plan, reg)
	default:
		fatalf("unknown sweep %q", *sweep)
	}
	stopProgress()
	printLookupLatency(reg)
	if rec != nil {
		if err := cliutil.WriteTrace(rec, *tracePath, *traceFormat); err != nil {
			fatalf("trace: %v", err)
		}
	}
	if *pprofHold > 0 && *pprofAddr != "" {
		fmt.Fprintf(os.Stderr, "pprof: holding for %s\n", *pprofHold)
		time.Sleep(*pprofHold)
	}
	if *strict && failures > 0 {
		fatalf("%d sampled pairs failed to route (-strict)", failures)
	}
}

// printLookupLatency summarises the route_lookup_seconds histogram when any
// lookups were recorded: count plus exact-rank p50/p90/p99/p999 and max.
// Latencies are host wall times, so the summary goes to stderr with the
// other host-side diagnostics — stdout stays bit-identical across runs.
func printLookupLatency(reg *obs.Registry) {
	s := metrics.LookupHist(reg).Snapshot()
	if s.Count == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "\nlookup latency (%d lookups): p50=%s p90=%s p99=%s p999=%s max=%s\n",
		s.Count,
		time.Duration(s.Quantile(0.5)), time.Duration(s.Quantile(0.9)),
		time.Duration(s.Quantile(0.99)), time.Duration(s.Quantile(0.999)),
		time.Duration(s.Max))
}

func runTable1(family graph.Family, ns, ks []int, seed int64, pairs int, schemes []string, rec *trace.Recorder, plan *faults.Plan, reg *obs.Registry) int {
	fmt.Printf("Table 1: distributed compact routing schemes (%s)\n\n", family)
	headers := []string{"n", "k", "scheme", "rounds", "messages", "table(w)", "label(w)", "stretch max", "stretch avg", "mem peak(w)", "mem avg(w)"}
	var rows [][]string
	var warnings []string
	failures := 0
	var fc faults.Counters
	for _, n := range ns {
		for _, k := range ks {
			res, err := metrics.RunTable1(metrics.Table1Config{
				Family: family, N: n, K: k, Seed: seed, Pairs: pairs, Schemes: schemes,
				Trace: rec, Faults: plan, Metrics: reg,
			})
			if err != nil {
				fatalf("n=%d k=%d: %v", n, k, err)
			}
			for _, r := range res {
				fc.Add(r.Faults)
				if r.Stretch.Failures > 0 {
					failures += r.Stretch.Failures
					warnings = append(warnings, fmt.Sprintf(
						"warning: n=%d k=%d %s: %d of %d sampled pairs failed to route",
						r.N, r.K, r.Scheme, r.Stretch.Failures, r.Stretch.Failures+r.Stretch.Pairs))
				}
				rounds := "NA"
				mem := "NA"
				avg := "NA"
				msgs := "NA"
				if r.Rounds > 0 {
					rounds = metrics.FormatInt(r.Rounds)
					msgs = metrics.FormatInt(r.Messages)
					mem = metrics.FormatInt(r.PeakMem)
					avg = fmt.Sprintf("%.0f", r.AvgMem)
				}
				rows = append(rows, []string{
					strconv.Itoa(r.N), strconv.Itoa(r.K), r.Scheme,
					rounds, msgs,
					strconv.Itoa(r.TableWords), strconv.Itoa(r.LabelWords),
					fmt.Sprintf("%.2f", r.Stretch.Max), fmt.Sprintf("%.2f", r.Stretch.Avg),
					mem, avg,
				})
			}
		}
	}
	fmt.Print(metrics.FormatTable(headers, rows))
	fmt.Printf("\nstretch bound: 4k-3 (+o(1) for distributed schemes); 'NA' = centralized construction\n")
	if plan != nil && !plan.Empty() {
		fmt.Printf("\nfault plan (paper scheme): %s\n", plan)
		fmt.Printf("faults: %s\n", faultSummary(fc))
	}
	for _, w := range warnings {
		fmt.Println(w)
	}
	return failures
}

func runMemorySweep(family graph.Family, ns, ks []int, seed int64) {
	fmt.Printf("E3: per-vertex memory vs k (%s)\n\n", family)
	headers := []string{"n", "k", "paper peak(w)", "paper avg(w)", "en16b peak(w)", "en16b avg(w)", "paper table(w)", "paper label(w)"}
	var rows [][]string
	for _, n := range ns {
		pts, err := metrics.SweepMemoryVsK(family, n, ks, seed)
		if err != nil {
			fatalf("n=%d: %v", n, err)
		}
		for _, p := range pts {
			rows = append(rows, []string{
				strconv.Itoa(n), strconv.Itoa(p.K),
				metrics.FormatInt(p.PaperPeak), fmt.Sprintf("%.0f", p.PaperAvg),
				metrics.FormatInt(p.BaselinePeak), fmt.Sprintf("%.0f", p.BaselineAvg),
				strconv.Itoa(p.PaperTable), strconv.Itoa(p.PaperLabel),
			})
		}
	}
	fmt.Print(metrics.FormatTable(headers, rows))
	fmt.Printf("\nexpected shape: paper memory shrinks with k (Õ(n^{1/k})); en16b stays Ω(√n)\n")
}

func runStretchHistogram(family graph.Family, ns, ks []int, seed int64, pairs int, rec *trace.Recorder, plan *faults.Plan, reg *obs.Registry) int {
	const buckets = 12
	const width = 0.5
	totalFailures := 0
	for _, n := range ns {
		for _, k := range ks {
			topo, err := graph.GenerateCSR(family, n, rand.New(rand.NewSource(seed)))
			if err != nil {
				fatalf("generate: %v", err)
			}
			sink := trace.Tee(rec, trace.RegistrySink(reg))
			sim := congest.NewTopo(topo, congest.WithTrace(sink), congest.WithFaults(plan))
			rec.Attach(sim)
			sp := trace.Begin(sink, fmt.Sprintf("paper[n=%d,k=%d]", n, k))
			s, err := core.Build(sim, core.Options{K: k, Seed: seed})
			sp.End()
			if err != nil {
				fatalf("build: %v", err)
			}
			hist, failures := metrics.StretchHistogram(topo, dataplane.Compile(s.Scheme).RouteAppend, pairs, buckets, width, rand.New(rand.NewSource(seed+1)))
			totalFailures += failures
			fmt.Printf("E5: stretch distribution, n=%d k=%d (%s), bound 4k-3 = %d\n\n", n, k, family, 4*k-3)
			if plan != nil && !plan.Empty() {
				fmt.Printf("  built under faults %s: %s\n\n", plan, faultSummary(sim.FaultCounters()))
			}
			if failures > 0 {
				fmt.Printf("  (%d pairs failed to route and were skipped)\n\n", failures)
			}
			max := 1
			for _, c := range hist {
				if c > max {
					max = c
				}
			}
			for i, c := range hist {
				lo := 1 + float64(i)*width
				bar := strings.Repeat("#", c*50/max)
				fmt.Printf("  [%4.1f,%4.1f)  %5d  %s\n", lo, lo+width, c, bar)
			}
			fmt.Println()
		}
	}
	return totalFailures
}

// runTraffic is E11: compile a built scheme into the flat-array data plane
// and sweep the deterministic Zipf traffic generator over worker counts and
// skews. The workload columns on stdout (lookups, arrived, no-route) are
// deterministic for a given seed; throughput and latency quantiles are host
// wall times and go to stderr with the other host-side diagnostics.
func runTraffic(family graph.Family, ns, ks []int, seed int64, workers []int, skews []float64, batch int, lookups int64, duration time.Duration, rate float64) {
	fmt.Printf("E11: data-plane traffic, compiled tables (%s)\n\n", family)
	headers := []string{"n", "k", "workers", "skew", "batch", "lookups", "arrived", "no-route"}
	var rows [][]string
	for _, n := range ns {
		for _, k := range ks {
			topo, err := graph.GenerateCSR(family, n, rand.New(rand.NewSource(seed)))
			if err != nil {
				fatalf("generate: %v", err)
			}
			s, err := tz.Build(topo, tz.Options{K: k, Seed: seed})
			if err != nil {
				fatalf("n=%d k=%d: %v", n, k, err)
			}
			eng := dataplane.NewEngine(dataplane.Compile(s.Scheme))
			for _, w := range workers {
				for _, sk := range skews {
					lat := obs.NewRegistry().Histogram("traffic_lookup_seconds", 1e-9)
					rep, err := traffic.Run(eng, traffic.Config{
						Workers:  w,
						Batch:    batch,
						Skew:     sk,
						Seed:     uint64(seed),
						Lookups:  lookups,
						Duration: duration,
						Rate:     rate,
					}, lat)
					if err != nil {
						fatalf("traffic n=%d k=%d: %v", n, k, err)
					}
					rows = append(rows, []string{
						strconv.Itoa(n), strconv.Itoa(k),
						strconv.Itoa(rep.Workers), fmt.Sprintf("%.2f", sk), strconv.Itoa(rep.Batch),
						metrics.FormatInt(rep.Lookups), metrics.FormatInt(rep.Arrived), metrics.FormatInt(rep.NoRoute),
					})
					q := lat.Snapshot()
					fmt.Fprintf(os.Stderr, "traffic n=%d k=%d workers=%d skew=%.2f: %.2fM lookups/s  p50=%s p99=%s p999=%s max=%s\n",
						n, k, rep.Workers, sk, rep.Rate()/1e6,
						time.Duration(q.Quantile(0.5)), time.Duration(q.Quantile(0.99)),
						time.Duration(q.Quantile(0.999)), time.Duration(q.Max))
				}
			}
		}
	}
	fmt.Print(metrics.FormatTable(headers, rows))
	fmt.Printf("\ndestinations are Zipf-ranked by vertex id; lookup latency quantiles are on stderr (host-measured)\n")
}

// runScale is E12: build the paper's scheme on the streaming CSR substrate
// for every (n, k) cell and print one machine-readable key=value row per
// cell to stdout. Stdout rows and the final fitted-slope lines are
// deterministic for a fixed seed and completed cell set; wall times, heap
// figures, and budget skips go to stderr. The fitted log-log slope of the
// per-vertex table and memory averages against n is the paper's n^{1/k}
// check.
func runScale(family graph.Family, ns, ks []int, seed int64, budget time.Duration, shards int, reg *obs.Registry) {
	fmt.Printf("E12: memory-curve scale sweep (%s)\n\n", family)
	start := time.Now()
	var rows []*metrics.ScaleRow
	skipped := 0
	for _, n := range ns {
		for _, k := range ks {
			if budget > 0 && time.Since(start) > budget {
				skipped++
				fmt.Fprintf(os.Stderr, "scale: skipped n=%d k=%d (budget %s exceeded)\n", n, k, budget)
				continue
			}
			row, err := metrics.RunScale(metrics.ScaleConfig{
				Family: family, N: n, K: k, Seed: seed, Shards: shards, Metrics: reg,
			})
			if err != nil {
				fatalf("scale n=%d k=%d: %v", n, k, err)
			}
			rows = append(rows, row)
			fmt.Println(row.DeterministicLine())
			fmt.Fprintln(os.Stderr, row.HostLine())
		}
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "scale: %d of %d cells skipped by -scale-budget; slope fit covers completed cells only\n",
			skipped, len(ns)*len(ks))
	}
	tabSlope := metrics.SlopeByK(rows, func(r *metrics.ScaleRow) float64 { return r.TableAvgW })
	memSlope := metrics.SlopeByK(rows, func(r *metrics.ScaleRow) float64 { return r.MemAvgW })
	for _, k := range ks {
		ts, ok := tabSlope[k]
		if !ok || math.IsNaN(ts) { // single-cell runs (smoke) have no slope to fit
			continue
		}
		fmt.Printf("slope k=%d table_avg_w=%.3f mem_avg_w=%.3f expect=%.3f\n", k, ts, memSlope[k], 1/float64(k))
	}
}

// faultSummary renders fault counters as one human line.
func faultSummary(c faults.Counters) string {
	return fmt.Sprintf("dropped %s (retried %s, lost %s), duplicated %s, delay rounds %s, discarded %s, retry words %s",
		metrics.FormatInt(c.Dropped), metrics.FormatInt(c.Retried), metrics.FormatInt(c.Lost),
		metrics.FormatInt(c.Duplicated), metrics.FormatInt(c.DelayRounds),
		metrics.FormatInt(c.Discarded), metrics.FormatInt(c.RetryWords))
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "routebench: "+format+"\n", args...)
	os.Exit(1)
}
