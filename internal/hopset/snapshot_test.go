package hopset

// Mid-run checkpoint/resume of an exploration: an Explore cut off at an
// interior round (writing a checkpoint on the way) and resumed on a fresh
// simulator + Explorer must produce exactly the state, distances and meter
// readings of an uninterrupted run. The graph is large enough for the
// engine to fork rounds (it does so from 1024 active vertices or dirty
// destinations on), so the sharded runs also pin the explorer's handlers
// running on the worker pool: equal to the serial run, before and after
// the cut.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

func TestExploreResumeEquivalence(t *testing.T) {
	const (
		n    = 1500
		hops = 12
		cut  = 20 // interrupt after 20 executed rounds — mid-flood
	)
	g, err := graph.Generate(graph.FamilyErdosRenyi, n, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int{0, 17, 42, 80}
	srcs := make([]Source, 0, len(seeds))
	for _, s := range seeds {
		srcs = append(srcs, Source{Root: s, At: s, Dist: 0})
	}

	type snap struct {
		dist      [][]float64
		cur, peak []int64
		rounds    int64
	}
	capture := func(sim *congest.Simulator, res *ExploreResult) snap {
		var s snap
		for v := 0; v < n; v++ {
			row := make([]float64, 0, len(seeds))
			for _, root := range seeds {
				row = append(row, res.Dist(v, root))
			}
			s.dist = append(s.dist, row)
			s.cur = append(s.cur, sim.Mem(v).Current())
			s.peak = append(s.peak, sim.Mem(v).Peak())
		}
		s.rounds = sim.Rounds()
		return s
	}

	requireForked := func(t *testing.T, sim *congest.Simulator, workers int, run string) {
		t.Helper()
		if steps, deliveries := sim.ParallelRounds(); workers > 1 && (steps == 0 || deliveries == 0) {
			t.Fatalf("%s run: %d parallel step rounds, %d parallel delivery rounds; it never forked",
				run, steps, deliveries)
		}
	}

	var serial *snap
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("shards=%d", workers), func(t *testing.T) {
			refSim := congest.NewTopo(graph.FromGraph(g), congest.WithWorkers(workers))
			refRes, err := Explore(refSim, srcs, ExploreOptions{Hops: hops})
			if err != nil {
				t.Fatal(err)
			}
			requireForked(t, refSim, workers, "straight")
			ref := capture(refSim, refRes)
			if serial == nil {
				serial = &ref
			} else if !reflect.DeepEqual(ref, *serial) {
				t.Fatalf("straight run at %d shards diverged from the serial one", workers)
			}

			// Interrupted run: MaxRounds == cut aborts the exploration (the
			// non-convergence error is the simulated crash) after the
			// checkpointer has written its cadence snapshot at round cut.
			path := filepath.Join(t.TempDir(), "explore.ckpt")
			ck := congest.NewCheckpointer(path, cut)
			ck.MidRun(true)
			cutSim := congest.NewTopo(graph.FromGraph(g), congest.WithWorkers(workers))
			if err := ck.Attach(cutSim); err != nil {
				t.Fatal(err)
			}
			cutEx := NewExplorer(cutSim)
			if err := ck.Register(cutEx); err != nil {
				t.Fatal(err)
			}
			if _, err := cutEx.Explore(srcs, ExploreOptions{Hops: hops, MaxRounds: cut}); err == nil {
				t.Fatalf("exploration converged within %d rounds; cut point is past quiescence", cut)
			}
			if err := ck.Err(); err != nil {
				t.Fatal(err)
			}

			ckr, err := congest.ResumeCheckpointer(path, cut)
			if err != nil {
				t.Fatal(err)
			}
			resSim := congest.NewTopo(graph.FromGraph(g), congest.WithWorkers(workers))
			if err := ckr.Attach(resSim); err != nil {
				t.Fatal(err)
			}
			resEx := NewExplorer(resSim)
			if err := ckr.Register(resEx); err != nil {
				t.Fatal(err)
			}
			if !resSim.ResumePending() {
				t.Fatal("mid-run checkpoint did not arm the simulator for resume")
			}
			resRes, err := resEx.Explore(srcs, ExploreOptions{Hops: hops})
			if err != nil {
				t.Fatal(err)
			}
			requireForked(t, cutSim, workers, "cut")
			requireForked(t, resSim, workers, "resumed")
			got := capture(resSim, resRes)

			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("resumed exploration diverged from the straight run:\nstraight rounds=%d, resumed rounds=%d", ref.rounds, got.rounds)
			}
		})
	}
}
