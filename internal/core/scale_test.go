package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"lowmemroute/internal/clusterroute"
	"lowmemroute/internal/congest"
	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/trace"
)

// buildResult captures everything observable about one full construction:
// the byte-exact trace export (every message, round and span), the
// per-vertex meter peaks, the routing state, and a sample of routes.
type buildResult struct {
	trace  []byte
	peaks  []int64
	tables string
	labels string
	routes string
}

func runBuildOn(t *testing.T, sim *congest.Simulator, rec *trace.Recorder, n, k int, seed int64) buildResult {
	t.Helper()
	s, err := Build(sim, Options{K: k, Seed: seed, Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	tab := dataplane.Compile(s.Scheme)
	ex := rec.Export()
	ex.StripWall()
	var buf bytes.Buffer
	if err := trace.WriteExportJSON(&buf, ex); err != nil {
		t.Fatal(err)
	}
	views := make([]clusterroute.Table, n)
	for v := range views {
		views[v] = s.Table(v)
	}
	res := buildResult{
		trace:  buf.Bytes(),
		peaks:  make([]int64, n),
		tables: fmt.Sprintf("%v", views),
		labels: fmt.Sprintf("%v", s.Labels),
	}
	for v := 0; v < n; v++ {
		res.peaks[v] = sim.Mem(v).Peak()
	}
	r := rand.New(rand.NewSource(99))
	var routes bytes.Buffer
	for i := 0; i < 50; i++ {
		u, v := r.Intn(n), r.Intn(n)
		path, dist, err := tab.Route(u, v)
		if err != nil {
			t.Fatalf("route %d->%d: %v", u, v, err)
		}
		fmt.Fprintf(&routes, "%d->%d %v %.9f\n", u, v, path, dist)
	}
	res.routes = routes.String()
	return res
}

// TestTopoBuildWorkerInvariant extends the LM003 worker-count invariance to
// a full construction: the scale harness runs congest.NewTopo under whatever
// GOMAXPROCS the host has, and its machine-readable stdout rows must not
// depend on it. Byte-identical traces, meter peaks, tables, labels and
// routes at pool widths 1, 4 and 8 pin that.
//
// The engine forks a round only from 1024 active vertices or dirty
// destinations on, so the 33×33 grid is the test's point: its larger rounds
// cross that size, and the wider runs must show that they ran the build's
// handlers on the worker pool.
func TestTopoBuildWorkerInvariant(t *testing.T) {
	const (
		n    = 33 * 33
		k    = 3
		seed = 11
	)
	g, err := graph.GenerateCSR(graph.FamilyGrid, n, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	runAt := func(workers int) buildResult {
		rec := trace.NewRecorder()
		sim := congest.NewTopo(g,
			congest.WithTrace(rec), congest.WithWorkers(workers))
		res := runBuildOn(t, sim, rec, g.N(), k, seed)
		if steps, deliveries := sim.ParallelRounds(); workers > 1 && (steps == 0 || deliveries == 0) {
			t.Fatalf("workers=%d: %d parallel step rounds, %d parallel delivery rounds; the build never forked",
				workers, steps, deliveries)
		}
		return res
	}
	want := runAt(1)
	for _, workers := range []int{4, 8} {
		got := runAt(workers)
		if !bytes.Equal(want.trace, got.trace) {
			t.Errorf("workers=%d: trace differs from serial run", workers)
		}
		if want.tables != got.tables || want.labels != got.labels {
			t.Errorf("workers=%d: routing tables or labels differ from serial run", workers)
		}
		if want.routes != got.routes {
			t.Errorf("workers=%d: sampled routes differ from serial run:\nserial: %s\ngot: %s", workers, want.routes, got.routes)
		}
		for v := range want.peaks {
			if want.peaks[v] != got.peaks[v] {
				t.Fatalf("workers=%d: vertex %d meter peak %d, want %d", workers, v, got.peaks[v], want.peaks[v])
			}
		}
	}
}
