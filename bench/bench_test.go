package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"

	lmr "lowmemroute"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/obs"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {27, 50}, {39, 50}, {40, 75}, {44, 75},
		{100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {30_000_000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
		// The rule: at least tailBeyond samples lie beyond the percentile.
		if p := tailPercentile(tc.n); p > 50 && float64(tc.n)*(100-p)/100 < tailBeyond {
			t.Errorf("n=%d: p%g has fewer than %d samples beyond it", tc.n, p, tailBeyond)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 75); got != 4 {
		t.Errorf("p75 = %v, want 4", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, q2, q3, tc.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, (8.25-2.75)/5.5)
	}
}

// TestHistQuantile checks the interpolated histogram quantile against the
// exact one: within obs's bucket width (1/32 of the value) everywhere.
func TestHistQuantile(t *testing.T) {
	h := obs.NewRegistry().Histogram("x", 1)
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 100_000)
	for i := range xs {
		v := int64(400 + rng.ExpFloat64()*150)
		h.Record(v)
		xs[i] = float64(v)
	}
	sort.Float64s(xs)
	snap := h.Snapshot()
	for _, q := range []float64{0.01, 0.5, 0.75, 0.99} {
		exact := xs[int(q*float64(len(xs)))]
		if got := histQuantile(snap, q); math.Abs(got-exact)/exact > 1.0/32 {
			t.Errorf("q%g: interpolated %v, exact %v", q, got, exact)
		}
	}
}

// TestOpCount checks that a run's op count follows its length alone.
func TestOpCount(t *testing.T) {
	for _, w := range workloads {
		if w.kind == kindServe {
			continue
		}
		for _, tc := range []struct {
			seconds float64
			want    int
		}{{defaultSeconds, w.ops}, {2 * defaultSeconds, 2 * w.ops}, {0, minOps}} {
			r := &run{w: w, seconds: tc.seconds}
			if got := r.opCount(); got != tc.want {
				t.Errorf("%s: opCount at %gs = %d, want %d", w.name, tc.seconds, got, tc.want)
			}
		}
	}
}

// TestDijkstraMatchesNetwork checks the benchmark's CSR Dijkstra against the
// facade's exact distances on small instances of both build families.
func TestDijkstraMatchesNetwork(t *testing.T) {
	for _, f := range []graph.Family{graph.FamilyErdosRenyi, graph.FamilyGrid} {
		r := &run{w: workload{family: f, n: 64}, seed: 5}
		net, _, err := r.genNetwork(0)
		if err != nil {
			t.Fatal(err)
		}
		c, err := r.oracleTopo(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range []int{0, 17, 63} {
			dist := dijkstra(c, u)
			for v := range dist {
				if want := net.ShortestPath(u, v); dist[v] != want {
					t.Fatalf("%s: dist(%d,%d) = %v, want %v", f, u, v, dist[v], want)
				}
			}
		}
	}
}

// TestWriteGoldenNeedsOneRun checks that -write-golden is refused where it
// would run in child processes that cannot write the golden file.
func TestWriteGoldenNeedsOneRun(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "all", "-write-golden"},
		{"-workload", "build-er192-k2", "-repeat", "2", "-write-golden"},
	} {
		var out, errOut bytes.Buffer
		if code := benchMain(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", args, code, out.String())
		}
	}
}

// small shrinks a workload to test size: same code paths, a second or so.
func small(name string) workload {
	w, err := findWorkload(name)
	if err != nil {
		panic(err)
	}
	w.checkPairs, w.routeSample = 20, 500
	switch w.kind {
	case kindBuild, kindServe:
		if w.family == graph.FamilyGrid {
			w.n = 64
		} else {
			w.n = 48
		}
		w.schemes, w.rebuildEvery = 2, 512
	case kindExplore:
		w.n, w.lattice, w.hops = 1024, 2, 6
	}
	return w
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) { l.t.Log(string(p)); return len(p), nil }

// execute runs w for the fewest ops a run performs.
func execute(t *testing.T, w workload, traced bool, golden []outcome) *run {
	t.Helper()
	r := &run{w: w, seed: 7, traced: traced, golden: golden, outDir: t.TempDir(), log: testLog{t}}
	if err := r.execute(); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return r
}

// TestSmokeAllWorkloads runs every workload at test size, untraced and
// traced, and requires no failed check, every end-to-end metric and every
// per-layer time to be measured, and a second run of the same seed to
// reproduce every outcome.
func TestSmokeAllWorkloads(t *testing.T) {
	timeUnits := map[string]bool{"s": true, "ms": true, "ns": true}
	for _, w := range workloads {
		w := small(w.name)
		t.Run(w.name, func(t *testing.T) {
			a := execute(t, w, false, nil)
			b := execute(t, w, false, nil)
			if a.failed != 0 || a.attempted < minOps {
				t.Fatalf("attempted %d, failed %d", a.attempted, a.failed)
			}
			if !reflect.DeepEqual(a.outcomes, b.outcomes) || len(a.outcomes) == 0 {
				t.Fatalf("outcomes differ between runs of one seed:\n%+v\n%+v", a.outcomes, b.outcomes)
			}
			for _, m := range slices.Concat(endToEnd, demoted) {
				if v := a.metrics[m.Name]; !(v > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, v)
				}
			}
			tr := execute(t, w, true, nil)
			if tr.failed != 0 {
				t.Fatalf("traced: %d of %d checks failed", tr.failed, tr.attempted)
			}
			for _, m := range perLayer {
				if v := tr.metrics[m.Name]; timeUnits[m.Unit] && !(v > 0) {
					t.Errorf("per-layer %s = %v, want > 0", m.Name, v)
				}
			}
			if _, err := os.Stat(tr.outDir + "/" + w.name + ".trace.json"); err != nil {
				t.Errorf("trace export: %v", err)
			}
		})
	}
}

// TestTamperedGoldenFails checks that an outcome differing from the golden
// one is counted as a failed op, not ignored.
func TestTamperedGoldenFails(t *testing.T) {
	w := small("build-er192-k2")
	good := execute(t, w, false, nil)
	golden := append([]outcome(nil), good.outcomes...)
	if r := execute(t, w, false, golden); r.failed != 0 {
		t.Fatalf("untampered golden: %d failed", r.failed)
	}
	golden[1].Messages++
	r := execute(t, w, false, golden)
	if r.failed == 0 || r.result().Correct {
		t.Fatalf("tampered golden: failed=%d correct=%v, want a failure", r.failed, r.result().Correct)
	}
}

// TestExplorationCheckCatchesWrongDistance checks the exploration oracle
// rejects an unreached vertex and a distance below its parent's.
func TestExplorationCheckCatchesWrongDistance(t *testing.T) {
	r := &run{w: small("explore-grid64k"), seed: 3}
	in, _, err := r.genExplore(0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := r.explore(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.checkExploration(0, in, e); err != nil {
		t.Fatalf("clean exploration: %v", err)
	}
	v := -1
	for u, d := range e.dist {
		if d != graph.Infinity && d > 0 {
			v = u
			break
		}
	}
	for _, tamper := range []float64{graph.Infinity, e.dist[v] - 1} {
		bad := e
		bad.dist = append([]float64(nil), e.dist...)
		bad.dist[v] = tamper
		if err := r.checkExploration(0, in, bad); err == nil {
			t.Errorf("distance %v at vertex %d (was %v) passed the check", tamper, v, e.dist[v])
		}
	}
}

// TestGoldenSeed1 runs the first instance of every workload at full size
// with seed 1 and compares its outcome with the committed golden one.
func TestGoldenSeed1(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size instances")
	}
	golden, err := readGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(golden[w.name]) == 0 {
			t.Errorf("%s: no golden outcomes", w.name)
			continue
		}
		r := &run{w: w, seed: 1, golden: golden[w.name]}
		if err := firstInstance(r); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// firstInstance runs and checks instance 0 of r's workload.
func firstInstance(r *run) error {
	if r.w.kind == kindExplore {
		in, _, err := r.genExplore(0)
		if err != nil {
			return err
		}
		e, err := r.explore(in, nil)
		if err != nil {
			return err
		}
		return r.checkExploration(0, in, e)
	}
	net, _, err := r.genNetwork(0)
	if err != nil {
		return err
	}
	s, _, _, err := r.timedBuild(net, 0, nil)
	if err != nil {
		return err
	}
	var dp *lmr.DataPlane
	if r.w.kind == kindServe {
		if dp, err = lmr.Compile(s); err != nil {
			return err
		}
	}
	_, err = r.checkScheme(0, s, dp)
	return err
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", spec.PerLayer, perLayer)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", spec.RunSeconds, defaultSeconds)
	}
}
