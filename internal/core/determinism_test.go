package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/faults"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/trace"
)

// TestBuildTraceByteIdentical is the determinism regression test behind
// lowmemlint's LM003: two runs of the full construction with the same seed
// must produce byte-identical trace exports (modulo wall time, the one field
// that measures the host rather than the simulation). Any map-iteration
// order leaking into the schedule shows up here as a diff in round counts,
// message counts, or span structure.
//
// The run is repeated at several worker-pool widths: the engine shards both
// step execution and message delivery across workers, and the shard count
// must be unobservable — byte-identical traces and identical per-vertex
// meter peaks at every width, including width 1 (fully serial). At n=120
// no round reaches the engine's fork threshold, so here the widths pin the
// option's plumbing; TestTopoBuildWorkerInvariant runs a build large
// enough to fork and checks that it did.
//
// The same matrix runs again under an active fault plan: fault decisions are
// stateless hashes of (seed, link, sequence), so a faulty build must be just
// as worker-count invariant as a clean one. A WithFaults(nil) column pins
// the zero-cost contract — passing a nil plan is byte-identical to never
// installing the option.
func TestBuildTraceByteIdentical(t *testing.T) {
	const (
		n    = 120
		k    = 3
		seed = 42
	)
	runOnce := func(workers int, faultOpt congest.Option) ([]byte, []int64) {
		g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, n, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		opts := []congest.Option{congest.WithTrace(rec),
			congest.WithWorkers(workers)}
		if faultOpt != nil {
			opts = append(opts, faultOpt)
		}
		sim := congest.NewTopo(g, opts...)
		if _, err := Build(sim, Options{K: k, Seed: seed, Epsilon: 0.01}); err != nil {
			t.Fatal(err)
		}
		ex := rec.Export()
		ex.StripWall()
		var buf bytes.Buffer
		if err := trace.WriteExportJSON(&buf, ex); err != nil {
			t.Fatal(err)
		}
		peaks := make([]int64, n)
		for v := 0; v < n; v++ {
			peaks[v] = sim.Mem(v).Peak()
		}
		return buf.Bytes(), peaks
	}
	compare := func(t *testing.T, first, got []byte, firstPeaks, peaks []int64, label string) {
		t.Helper()
		if !bytes.Equal(first, got) {
			limit := len(first)
			if len(got) < limit {
				limit = len(got)
			}
			at := limit
			for i := 0; i < limit; i++ {
				if first[i] != got[i] {
					at = i
					break
				}
			}
			lo := at - 120
			if lo < 0 {
				lo = 0
			}
			hiA, hiB := at+120, at+120
			if hiA > len(first) {
				hiA = len(first)
			}
			if hiB > len(got) {
				hiB = len(got)
			}
			t.Fatalf("traces diverge at byte %d:\nbaseline: …%s…\n%s: …%s…",
				at, first[lo:hiA], label, got[lo:hiB])
		}
		for v := range peaks {
			if peaks[v] != firstPeaks[v] {
				t.Fatalf("vertex %d meter peak: %d at baseline, %d at %s",
					v, firstPeaks[v], peaks[v], label)
			}
		}
	}

	clean, cleanPeaks := runOnce(1, nil)

	// Re-run with the same width (rules out any run-to-run nondeterminism),
	// then at wider pools (rules out shard-count leaking into the schedule).
	widths := []int{1, 2, 4, 8, runtime.GOMAXPROCS(0)}
	for _, workers := range widths {
		workers := workers
		t.Run(fmt.Sprintf("clean/workers=%d", workers), func(t *testing.T) {
			got, peaks := runOnce(workers, nil)
			compare(t, clean, got, cleanPeaks, peaks, fmt.Sprintf("workers=%d", workers))
		})
	}

	// A nil plan must be indistinguishable from no plan at all.
	t.Run("nil-plan", func(t *testing.T) {
		got, peaks := runOnce(1, congest.WithFaults(nil))
		compare(t, clean, got, cleanPeaks, peaks, "WithFaults(nil)")
	})

	// An active plan gets its own baseline and the same invariance matrix.
	plan := &faults.Plan{Seed: 9, Drop: 0.1, Delay: 1, Duplicate: 0.1}
	faulty, faultyPeaks := runOnce(1, congest.WithFaults(plan))
	if bytes.Equal(clean, faulty) {
		t.Fatal("fault plan left the trace untouched (plan not applied?)")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("faults/workers=%d", workers), func(t *testing.T) {
			got, peaks := runOnce(workers, congest.WithFaults(plan))
			compare(t, faulty, got, faultyPeaks, peaks, fmt.Sprintf("faulty workers=%d", workers))
		})
	}
}
