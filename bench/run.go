package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A run is one execution of one workload: its ops, the checks they passed
// or failed, and the metrics measured.
type run struct {
	w       workload
	seed    int64
	seconds float64 // run length: sets the op count (opCount), or how long serve routes
	traced  bool
	// golden, when non-nil, holds the expected outcome of each instance.
	golden []outcome
	outDir string // where a traced run writes its trace export
	log    io.Writer

	ops, attempted, failed int
	outcomes               []outcome     // deterministic outputs by instance
	verify                 time.Duration // time spent checking outputs, outside every timed region
	metrics                map[string]float64
	notes                  []string
}

const (
	// defaultSeconds is the run length BENCHMARK.json gives (run_seconds).
	defaultSeconds = 20
	// minOps is the fewest ops a build or explore run performs.
	minOps = 2
	// tracedOps is how many instances a traced run builds or explores.
	tracedOps = 5
)

// opCount is how many ops a build or explore run performs: w.ops for a run
// of defaultSeconds, in proportion for other lengths. It never depends on
// how fast the host runs the ops, so that two commits measure the same
// instances for a seed, report the same tail percentile, and allocate
// exactly the same.
func (r *run) opCount() int {
	return max(minOps, int(math.Round(float64(r.w.ops)*r.seconds/defaultSeconds)))
}

// outcome is the deterministic output of one op: equal seeds must give
// equal outcomes on every host, at every GOMAXPROCS, with tracing on or off.
type outcome struct {
	Rounds     int64   `json:"rounds"`
	Messages   int64   `json:"messages"`
	Words      int64   `json:"words"`
	PeakMem    int64   `json:"peak_mem_words"`
	TableWords int     `json:"table_words_max,omitempty"`
	LabelWords int     `json:"label_words_max,omitempty"`
	StretchMax float64 `json:"stretch_max,omitempty"`
	StretchAvg float64 `json:"stretch_avg,omitempty"`
	Reached    int     `json:"reached,omitempty"`
}

// count records one attempted operation, failed when err is non-nil.
func (r *run) count(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 10 {
			fmt.Fprintf(r.log, "bench: %s: %v\n", r.w.name, err)
		}
	}
}

// checkOutcome compares instance i's outcome with the golden one, if any.
func (r *run) checkOutcome(i int, o outcome) error {
	if i < len(r.golden) && o != r.golden[i] {
		return fmt.Errorf("instance %d: outcome %+v differs from golden %+v", i, o, r.golden[i])
	}
	return nil
}

// verifying runs an output check and charges its time to r.verify.
func (r *run) verifying(check func() error) {
	t0 := time.Now()
	err := check()
	r.verify += time.Since(t0)
	r.count(err)
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// execute runs the workload's ops untraced and fills r.metrics with what
// they measure: the end-to-end metrics and the user-visible metrics demoted
// to per-layer (see endToEnd). A traced run then adds the per-layer ledger
// from traced twins of its first instances.
func (r *run) execute() error {
	r.metrics = make(map[string]float64)
	var err error
	switch r.w.kind {
	case kindBuild:
		err = r.runBuild()
	case kindExplore:
		err = r.runExplore()
	case kindServe:
		err = r.runServe()
	}
	if err != nil {
		return err
	}
	r.metrics["peak_rss_mb"] = peakRSSMB()
	if !r.traced {
		return nil
	}
	switch r.w.kind {
	case kindBuild:
		err = r.traceBuilds(min(tracedOps, r.opCount()))
	case kindExplore:
		err = r.traceExplore()
	case kindServe:
		err = r.traceBuilds(r.w.schemes)
	}
	r.metrics["metrics.verify_ms"] = float64(r.verify) / 1e6
	return err
}

// setOpMetrics fills the end-to-end metrics of a build or explore run from
// per-instance set-up times, per-op wall times (seconds) and per-op heap
// allocation (bytes). Allocation is a median like the times: a few
// instances allocate half as much again as the rest, and a mean would let
// them move the metric from seed to seed.
func (r *run) setOpMetrics(setup, walls, allocs []float64) {
	r.ops = len(walls)
	p := tailPercentile(len(walls))
	r.metrics["setup_s"] = median(setup)
	r.metrics["op_p50_ms"] = median(walls) * 1e3
	r.metrics["op_tail_ms"] = percentile(walls, p) * 1e3
	r.metrics["ops_per_s"] = float64(len(walls)) / sum(walls)
	r.metrics["alloc_mb_per_op"] = median(allocs) / 1e6
	r.note("ops=%d tail=p%g setups=%d", len(walls), p, len(setup))
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *run) result() result {
	cat := endToEnd
	if r.traced {
		cat = perLayer
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range cat {
		res.Metrics[m.Name] = metricValue{Value: r.metrics[m.Name], Unit: m.Unit}
	}
	return res
}

// report prints the provenance header, one line per metric measured (an
// untraced run measures the demoted metrics too), the notes, and the JSON
// result as the last line.
func (r *run) report(out io.Writer) error {
	res := r.result()
	fmt.Fprintf(out, "# workload=%s seed=%d ops=%d trace=%v attempted=%d failed=%d\n",
		r.w.name, r.seed, r.ops, r.traced, res.Attempted, res.Failed)
	var measured []metric
	for _, m := range slices.Concat(endToEnd, perLayer) {
		if _, ok := r.metrics[m.Name]; ok {
			measured = append(measured, m)
		}
	}
	sort.Slice(measured, func(i, j int) bool { return measured[i].Name < measured[j].Name })
	for _, m := range measured {
		fmt.Fprintf(out, "%-44s %16.6g %s\n", m.Name, r.metrics[m.Name], m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// provenance is the host header every run prints first.
func provenance() string {
	return fmt.Sprintf("# host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// totalAlloc returns the bytes allocated on the heap so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
