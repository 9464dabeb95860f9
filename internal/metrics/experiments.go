package metrics

import (
	"fmt"
	"math/rand"

	"lowmemroute/internal/baseline"
	"lowmemroute/internal/clusterroute"
	"lowmemroute/internal/congest"
	"lowmemroute/internal/core"
	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/faults"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/obs"
	"lowmemroute/internal/trace"
	"lowmemroute/internal/treeroute"
	"lowmemroute/internal/tz"
)

// LookupHist fetches (or lazily creates) reg's per-lookup wall-latency
// histogram, route_lookup_seconds, recorded by the experiment drivers and
// the facade: nanoseconds in, exposed in seconds. A nil registry gives a nil
// histogram, and the stretch loops then skip timing.
func LookupHist(reg *obs.Registry) *obs.Histogram {
	if reg == nil {
		return nil
	}
	const name = "route_lookup_seconds"
	reg.SetHelp(name, "Wall-clock latency of one Route lookup, in seconds.")
	return reg.Histogram(name, 1e-9)
}

// SchemeRow is one measured row of the paper's Table 1: a general-graph
// routing scheme's construction cost and scheme quality on one instance.
type SchemeRow struct {
	Scheme     string
	Family     graph.Family
	N, K       int
	D          int   // hop diameter bound used by the simulator
	Rounds     int64 // 0 for centralized constructions ("NA" in the paper)
	Messages   int64
	TableWords int
	LabelWords int
	Stretch    StretchStats
	PeakMem    int64
	AvgMem     float64
	// Faults reports what the fault plan (Table1Config.Faults) did to this
	// row's construction; zero for clean runs and centralized schemes.
	Faults faults.Counters
}

// Table1Config parameterises one Table 1 instance.
type Table1Config struct {
	Family graph.Family
	N      int
	K      int
	Seed   int64
	Pairs  int // stretch sample pairs (default 200)
	// Schemes filters which rows to run; nil runs all four
	// ("tz", "lp15", "en16b", "paper").
	Schemes []string
	// Trace, when non-nil, records the paper scheme's construction (one
	// root span per build, per-phase children, per-round samples).
	Trace *trace.Recorder
	// Faults, when non-nil and non-empty, injects link and vertex faults
	// into the paper scheme's construction (the distributed algorithm under
	// test); baseline rows always build cleanly so the comparison stays
	// faulty-paper vs clean-baseline.
	Faults *faults.Plan
	// Metrics, when non-nil, receives live engine counters from the
	// simulated constructions, build-phase progress from the paper scheme,
	// and the per-lookup latency histogram (LookupHist) from every
	// scheme's stretch measurement.
	Metrics *obs.Registry
	// Shards sets the paper scheme's parallel execution shard count
	// (congest.WithWorkers); 0 keeps the simulator default. Every measured
	// column is byte-identical at any shard count, so this only changes
	// wall-clock time.
	Shards int
}

// RunTable1 builds every requested scheme on the same graph and measures
// the five columns of the paper's Table 1.
func RunTable1(cfg Table1Config) ([]SchemeRow, error) {
	if cfg.Pairs <= 0 {
		cfg.Pairs = 200
	}
	schemes := cfg.Schemes
	if schemes == nil {
		schemes = []string{"tz", "lp15", "en16b", "paper"}
	}
	topo, err := graph.GenerateCSR(cfg.Family, cfg.N, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	var rows []SchemeRow
	for _, name := range schemes {
		row, err := runScheme(name, topo, cfg)
		if err != nil {
			return nil, fmt.Errorf("metrics: scheme %q: %w", name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runScheme builds and measures one Table 1 row on topo, the frozen
// instance shared by every row's simulator and stretch oracle.
func runScheme(name string, topo *graph.CSR, cfg Table1Config) (SchemeRow, error) {
	row := SchemeRow{Scheme: name, Family: cfg.Family, N: topo.N(), K: cfg.K}
	r := rand.New(rand.NewSource(cfg.Seed + 7))
	lat := LookupHist(cfg.Metrics)
	switch name {
	case "tz":
		s, err := tz.Build(topo, tz.Options{K: cfg.K, Seed: cfg.Seed})
		if err != nil {
			return row, err
		}
		row.TableWords = s.MaxTableWords()
		row.LabelWords = s.MaxLabelWords()
		row.Stretch = MeasureStretch(topo, dataplane.Compile(s.Scheme).RouteAppend, cfg.Pairs, r, lat)
	case "lp15":
		sim := congest.NewTopo(topo, congest.WithTrace(trace.RegistrySink(cfg.Metrics)))
		s, err := baseline.BuildLP15(sim, baseline.Options{K: cfg.K, Seed: cfg.Seed})
		if err != nil {
			return row, err
		}
		fillSim(&row, sim)
		row.TableWords = s.MaxTableWords()
		row.LabelWords = s.MaxLabelWords()
		row.Stretch = MeasureStretch(topo, dataplane.Compile(s).RouteAppend, cfg.Pairs, r, lat)
	case "en16b":
		sim := congest.NewTopo(topo, congest.WithTrace(trace.RegistrySink(cfg.Metrics)))
		s, err := baseline.BuildEN16b(sim, baseline.Options{K: cfg.K, Seed: cfg.Seed})
		if err != nil {
			return row, err
		}
		fillSim(&row, sim)
		row.TableWords = s.MaxTableWords()
		row.LabelWords = s.MaxLabelWords()
		row.Stretch = MeasureStretch(topo, s.RouteAppend, cfg.Pairs, r, lat)
	case "paper":
		sink := trace.Tee(cfg.Trace, trace.RegistrySink(cfg.Metrics))
		sim := congest.NewTopo(topo, congest.WithWorkers(cfg.Shards),
			congest.WithTrace(sink), congest.WithFaults(cfg.Faults))
		cfg.Trace.Attach(sim)
		sp := trace.Begin(sink, fmt.Sprintf("paper[n=%d,k=%d]", topo.N(), cfg.K))
		s, err := core.Build(sim, core.Options{K: cfg.K, Seed: cfg.Seed})
		sp.End()
		if err != nil {
			return row, err
		}
		fillSim(&row, sim)
		row.Faults = sim.FaultCounters()
		row.TableWords = s.MaxTableWords()
		row.LabelWords = s.MaxLabelWords()
		row.Stretch = MeasureStretch(topo, dataplane.Compile(s.Scheme).RouteAppend, cfg.Pairs, r, lat)
	default:
		return row, fmt.Errorf("unknown scheme %q", name)
	}
	return row, nil
}

func fillSim(row *SchemeRow, sim *congest.Simulator) {
	row.D = sim.Diameter()
	row.Rounds = sim.Rounds()
	row.Messages = sim.Messages()
	row.PeakMem = sim.PeakMemory()
	row.AvgMem = sim.AvgPeakMemory()
}

// TreeRow is one measured row of the paper's Table 2: a tree-routing
// scheme's construction cost and sizes on one instance.
type TreeRow struct {
	Scheme      string
	N           int
	TreeKind    string
	TreeHeight  int
	D           int
	Rounds      int64
	Messages    int64
	TableWords  int
	LabelWords  int
	HeaderWords int
	PeakMem     int64
	AvgMem      float64
	Exact       bool
}

// Table2Config parameterises one Table 2 instance.
type Table2Config struct {
	Family   graph.Family
	N        int
	TreeKind string // "dfs" (deep; default), "bfs", "sssp"
	Seed     int64
	Pairs    int
	// Schemes filters rows; nil runs all three
	// ("en16b-tree", "tz-tree", "paper-tree").
	Schemes []string
	// Trace, when non-nil, records the paper scheme's construction (one
	// root span per build, per-phase children, per-round samples).
	Trace *trace.Recorder
	// Metrics, when non-nil, receives live engine counters from the
	// simulated tree constructions.
	Metrics *obs.Registry
}

// RunTable2 builds every requested tree-routing scheme for the same
// spanning tree of the same network and measures the Table 2 columns.
func RunTable2(cfg Table2Config) ([]TreeRow, error) {
	if cfg.Pairs <= 0 {
		cfg.Pairs = 200
	}
	if cfg.TreeKind == "" {
		cfg.TreeKind = "dfs"
	}
	if cfg.Family == "" {
		cfg.Family = graph.FamilyErdosRenyi
	}
	schemes := cfg.Schemes
	if schemes == nil {
		schemes = []string{"en16b-tree", "tz-tree", "paper-tree"}
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	topo, err := graph.GenerateCSR(cfg.Family, cfg.N, r)
	if err != nil {
		return nil, err
	}
	tree, err := graph.SpanningTree(topo, 0, cfg.TreeKind, r)
	if err != nil {
		return nil, err
	}
	var rows []TreeRow
	for _, name := range schemes {
		row, err := runTreeScheme(name, topo, tree, cfg)
		if err != nil {
			return nil, fmt.Errorf("metrics: tree scheme %q: %w", name, err)
		}
		row.TreeKind = cfg.TreeKind
		row.TreeHeight = tree.Height()
		rows = append(rows, row)
	}
	return rows, nil
}

func runTreeScheme(name string, topo *graph.CSR, tree *graph.Tree, cfg Table2Config) (TreeRow, error) {
	row := TreeRow{Scheme: name, N: topo.N()}
	r := rand.New(rand.NewSource(cfg.Seed + 13))
	pairs := treeroute.SamplePairs(tree, cfg.Pairs, r)
	switch name {
	case "tz-tree":
		s := treeroute.BuildCentralized(tree)
		row.TableWords = s.MaxTableWords()
		row.LabelWords = s.MaxLabelWords()
		row.Exact = treeroute.VerifyExact(compiledTreeRoute(s, topo), tree, pairs) == nil
	case "paper-tree":
		sink := trace.Tee(cfg.Trace, trace.RegistrySink(cfg.Metrics))
		sim := congest.NewTopo(topo, congest.WithTrace(sink))
		cfg.Trace.Attach(sim)
		sp := trace.Begin(sink, fmt.Sprintf("paper-tree[n=%d]", topo.N()))
		res, err := treeroute.BuildDistributed(sim, []*graph.Tree{tree},
			treeroute.DistOptions{Seed: cfg.Seed})
		sp.End()
		if err != nil {
			return row, err
		}
		s := res.Schemes[0]
		row.D = sim.Diameter()
		row.Rounds = sim.Rounds()
		row.Messages = sim.Messages()
		row.PeakMem = sim.PeakMemory()
		row.AvgMem = sim.AvgPeakMemory()
		row.TableWords = s.MaxTableWords()
		row.LabelWords = s.MaxLabelWords()
		row.Exact = treeroute.VerifyExact(compiledTreeRoute(s, topo), tree, pairs) == nil
	case "en16b-tree":
		sim := congest.NewTopo(topo, congest.WithTrace(trace.RegistrySink(cfg.Metrics)))
		s, err := treeroute.BuildBaseline(sim, tree, treeroute.DistOptions{Seed: cfg.Seed})
		if err != nil {
			return row, err
		}
		row.D = sim.Diameter()
		row.Rounds = sim.Rounds()
		row.Messages = sim.Messages()
		row.PeakMem = sim.PeakMemory()
		row.AvgMem = sim.AvgPeakMemory()
		row.TableWords = s.MaxTableWords()
		row.LabelWords = s.MaxLabelWords()
		row.HeaderWords = s.MaxHeaderWords()
		row.Exact = treeroute.VerifyExact(s.RouteAppend, tree, pairs) == nil
	default:
		return row, fmt.Errorf("unknown tree scheme %q", name)
	}
	return row, nil
}

// compiledTreeRoute compiles a Thorup-Zwick tree scheme as a one-cluster
// scheme and returns its table's walk in VerifyExact's route shape.
func compiledTreeRoute(s *treeroute.Scheme, host graph.Topology) func(src, dst int, path []int) ([]int, error) {
	tab := dataplane.Compile(clusterroute.FromTree(s, host))
	return func(src, dst int, path []int) ([]int, error) {
		path, _, err := tab.RouteAppend(src, dst, path)
		return path, err
	}
}
