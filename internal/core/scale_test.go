package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"lowmemroute/internal/congest"
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
	s, err := Build(sim, Options{K: k, Seed: seed, Epsilon: 0.01, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	ex := rec.Export()
	ex.StripWall()
	var buf bytes.Buffer
	if err := trace.WriteExportJSON(&buf, ex); err != nil {
		t.Fatal(err)
	}
	res := buildResult{
		trace:  buf.Bytes(),
		peaks:  make([]int64, n),
		tables: fmt.Sprintf("%v", s.Tables),
		labels: fmt.Sprintf("%v", s.Labels),
	}
	for v := 0; v < n; v++ {
		res.peaks[v] = sim.Mem(v).Peak()
	}
	r := rand.New(rand.NewSource(99))
	var routes bytes.Buffer
	for i := 0; i < 50; i++ {
		u, v := r.Intn(n), r.Intn(n)
		path, dist, err := s.Route(u, v)
		if err != nil {
			t.Fatalf("route %d->%d: %v", u, v, err)
		}
		fmt.Fprintf(&routes, "%d->%d %v %.9f\n", u, v, path, dist)
	}
	res.routes = routes.String()
	return res
}

// TestTopoBuildMatchesGraphBuild pins the substrate-independence contract of
// the compact topology: the full construction on a CSR-backed simulator
// (congest.NewTopo(graph.FromGraph(g))) must be byte-identical to the same
// construction on the slice-of-slices simulator (congest.New(g)) — same
// trace export (every message of every round), same per-vertex meter peaks,
// same tables, labels and routes. FromGraph preserves adjacency order and
// exact weights, so any divergence means an accessor (NeighborRange,
// ArcWeight, Degree) reordered or requantized something.
func TestTopoBuildMatchesGraphBuild(t *testing.T) {
	cases := []struct {
		family graph.Family
		n, k   int
	}{
		{graph.FamilyErdosRenyi, 120, 3},
		{graph.FamilyGrid, 144, 2},
		{graph.FamilyPowerLaw, 150, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s/n=%d/k=%d", tc.family, tc.n, tc.k), func(t *testing.T) {
			g, err := graph.Generate(tc.family, tc.n, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			const seed = 42

			recG := trace.NewRecorder()
			simG := congest.New(g, congest.WithSeed(seed), congest.WithTrace(recG))
			want := runBuildOn(t, simG, recG, g.N(), tc.k, seed)

			recC := trace.NewRecorder()
			simC := congest.NewTopo(graph.FromGraph(g), congest.WithSeed(seed), congest.WithTrace(recC))
			got := runBuildOn(t, simC, recC, g.N(), tc.k, seed)

			if !bytes.Equal(want.trace, got.trace) {
				t.Error("trace exports differ between Graph-backed and CSR-backed builds")
			}
			for v := range want.peaks {
				if want.peaks[v] != got.peaks[v] {
					t.Fatalf("vertex %d meter peak: %d on Graph, %d on CSR", v, want.peaks[v], got.peaks[v])
				}
			}
			if want.tables != got.tables {
				t.Error("routing tables differ between substrates")
			}
			if want.labels != got.labels {
				t.Error("labels differ between substrates")
			}
			if want.routes != got.routes {
				t.Errorf("sampled routes differ between substrates:\nGraph: %s\nCSR: %s", want.routes, got.routes)
			}
		})
	}
}

// TestTopoBuildWorkerInvariant extends the LM003 worker-count invariance to
// the CSR-backed path: the scale harness runs congest.NewTopo under whatever
// GOMAXPROCS the host has, and its machine-readable stdout rows must not
// depend on it. Byte-identical traces at pool widths 1, 4 and 8 pin that.
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
	g, err := graph.Generate(graph.FamilyGrid, n, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	runAt := func(workers int) buildResult {
		rec := trace.NewRecorder()
		sim := congest.NewTopo(graph.FromGraph(g),
			congest.WithSeed(seed), congest.WithTrace(rec), congest.WithWorkers(workers))
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
			t.Errorf("workers=%d: trace differs from serial run on the CSR path", workers)
		}
		for v := range want.peaks {
			if want.peaks[v] != got.peaks[v] {
				t.Fatalf("workers=%d: vertex %d meter peak %d, want %d", workers, v, got.peaks[v], want.peaks[v])
			}
		}
	}
}
