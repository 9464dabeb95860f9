package main

import (
	"fmt"

	"lowmemroute/internal/graph"
)

type kind int

const (
	kindBuild   kind = iota // one op builds a scheme on a fresh instance
	kindExplore             // one op boots an engine and runs a bounded exploration
	kindServe               // one op routes one packet through a compiled table
)

// A workload is one set of inputs and the op run on each. Every op of a run
// gets its own instance, derived from (seed, op index): instance-to-instance
// cost differs by ±15% on these families, so a run that measured a single
// instance would report its seed rather than the code.
type workload struct {
	name string
	why  string
	kind kind

	// ops is how many ops a build or explore run of defaultSeconds performs
	// (opCount). Serve runs are timed instead: they route for the run's
	// length.
	ops int

	family graph.Family
	n, k   int

	checkPairs  int // build, serve: routed pairs checked per built scheme
	routeSample int // traced build, serve: pairs timed per routing layer

	lattice int // explore: sources sit one per cell of a lattice×lattice partition
	hops    int // explore: hop budget

	schemes      int // serve: schemes built in set-up and served one after another
	rebuildEvery int // serve: routes between two rebuild requests
}

// zipfSkew is the destination popularity of the serve workload: Zipf(1.0),
// the web-like skew the traffic package was written for.
const zipfSkew = 1.0

var workloads = []workload{
	{
		name: "build-er192-k2",
		why:  "headline Table 1 build (ER n=192, k=2): tree routing ~60% of wall, the only build where hopset and cluster phases weigh",
		kind: kindBuild, ops: 40, family: graph.FamilyErdosRenyi, n: 192, k: 2,
		checkPairs: 200, routeSample: 100_000,
	},
	{
		name: "build-grid400-k3",
		why:  "high hop diameter, deeper hierarchy (20x20 grid, k=3): tree routing ~90% of wall, local-dfs alone ~40%",
		kind: kindBuild, ops: 40, family: graph.FamilyGrid, n: 400, k: 3,
		checkPairs: 200, routeSample: 100_000,
	},
	{
		name: "explore-grid64k",
		why:  "engine boot plus a 48-hop 9-source exploration of a 256x256 grid: ~15k delivered messages per round, no core or tree code",
		kind: kindExplore, ops: 16, family: graph.FamilyGrid, n: 65536, lattice: 3, hops: 48,
	},
	{
		name: "serve-grid400-k3",
		why:  "compiled-table forwarding with Zipf destinations while a second goroutine recompiles and swaps the table; no simulation",
		kind: kindServe, family: graph.FamilyGrid, n: 400, k: 3,
		checkPairs: 400, routeSample: 100_000,
		schemes: 5, rebuildEvery: 1 << 16,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// servedSeed is the seed of the schemes the serve workload serves: they do
// not change with -seed, which draws the traffic. When each seed built its
// own five tables, the serve metrics moved by ±12% from seed to seed with
// the size of the tables drawn, not with the forwarder.
const servedSeed = 1

// instanceSeed derives the generator and build seed of the run's i-th
// instance from the workload seed.
func (r *run) instanceSeed(i int) int64 {
	seed := r.seed
	if r.w.kind == kindServe {
		seed = servedSeed
	}
	return seed*1_000_003 + int64(i)
}

// metric is one entry of the catalogue; BENCHMARK.json lists the same
// entries (TestCatalogueMatchesBenchmarkJSON).
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user waits for or pays, reported by every workload
// and gated by its bound. setup_s has the widest bound the benchmark format
// allows: set-up is a fraction of a millisecond of generation on the build
// workloads.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
}

// demoted are end-to-end metrics whose ten-seed spread on the reference
// host exceeds the bound a gate would need (10% for times and peak RSS, 2%
// for allocation; README.md has the measurements), so they are reported,
// measured exactly as for a gate, without one. An op is one build, one
// exploration, or one route (see README.md).
var demoted = []metric{
	{"op_p50_ms", "ms", "lower", 0},
	{"op_tail_ms", "ms", "lower", 0},
	{"ops_per_s", "1/s", "higher", 0},
	{"alloc_mb_per_op", "MB", "lower", 0},
	{"peak_rss_mb", "MB", "lower", 0},
}

// Build phases as named by the spans core and treeroute record.
var (
	corePhases = []string{"exact-pivots", "low-clusters", "hopset", "approx-pivots", "approx-clusters", "tree-routing"}
	treePhases = []string{"local-roots", "local-sizes", "global-sizes", "sizes-down", "local-light",
		"global-light", "light-down", "local-dfs", "global-shifts", "shifts-down"}
	hopsetLevels = 3 // core's default hopset depth
)

// perLayer is what a traced run reports: the demoted metrics, then the
// ledger. Ledger times (ms, ns) are reported only for layers every workload
// runs; a layer that some workload skips reports shares, counts and rates,
// which read 0 where it does not run.
var perLayer = func() []metric {
	m := append([]metric(nil), demoted...)
	m = append(m, []metric{
		{"graph.generate_ms", "ms", "lower", 0},
		{"congest.boot_ms", "ms", "lower", 0},
		{"congest.rounds", "count", "lower", 0},
		{"congest.messages", "count", "lower", 0},
		{"congest.words", "count", "lower", 0},
		{"congest.peak_mem_words", "words", "lower", 0},
		{"congest.ns_per_round", "ns", "lower", 0},
		{"congest.ns_per_delivered_message", "ns", "lower", 0},
		{"congest.executed_rounds", "count", "lower", 0},
		{"congest.delivered_messages", "count", "lower", 0},
		{"congest.charged_messages", "count", "lower", 0},
		{"congest.active_vertex_rounds", "count", "lower", 0},
		{"congest.msgs_per_active_vertex_round", "ratio", "higher", 0},
		{"hopset.edges", "count", "lower", 0},
		{"hopset.reached", "count", "higher", 0},
	}...)
	for i := 0; i < hopsetLevels; i++ {
		p := fmt.Sprintf("hopset.level-%d.", i)
		m = append(m, metric{p + "share_pct", "%", "lower", 0}, metric{p + "messages", "count", "lower", 0})
	}
	for _, ph := range corePhases {
		p := "core." + ph + "."
		m = append(m,
			metric{p + "share_pct", "%", "lower", 0},
			metric{p + "rounds", "count", "lower", 0},
			metric{p + "messages", "count", "lower", 0},
			metric{p + "alloc_mb", "MB", "lower", 0})
	}
	for _, ph := range treePhases {
		p := "treeroute." + ph + "."
		m = append(m,
			metric{p + "share_pct", "%", "lower", 0},
			metric{p + "rounds", "count", "lower", 0},
			metric{p + "messages", "count", "lower", 0})
	}
	return append(m,
		metric{"clusterroute.routes_per_s", "1/s", "higher", 0},
		metric{"clusterroute.table_words_max", "words", "lower", 0},
		metric{"clusterroute.label_words_max", "words", "lower", 0},
		metric{"clusterroute.stretch_max", "ratio", "lower", 0},
		metric{"clusterroute.stretch_avg", "ratio", "lower", 0},
		metric{"dataplane.routes_per_s", "1/s", "higher", 0},
		metric{"dataplane.hops_per_route", "count", "lower", 0},
		metric{"dataplane.compiles_per_s", "1/s", "higher", 0},
		metric{"trace.op_ms", "ms", "lower", 0},
		metric{"trace.overhead_pct", "%", "lower", 0},
		metric{"trace.span_coverage_pct", "%", "higher", 0},
		metric{"metrics.verify_ms", "ms", "lower", 0},
	)
}()
