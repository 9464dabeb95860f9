package treeroute

// Build-level checkpoint/resume: a distributed construction checkpointed at
// every phase boundary must be resumable from EVERY cut point, with the
// resumed build's schemes, engine counters and meter peaks identical to an
// uninterrupted build. Resuming from all ten cuts is what pins the
// durable-vs-transient classification in the builder's checkpoint section: a
// field wrongly left out only bites at the cut right after the phase that
// wrote it.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"math/rand"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

type buildSnap struct {
	rounds, messages, words int64
	peaks                   []int64
	schemes                 []*Scheme
}

func captureBuild(sim *congest.Simulator, res *DistResult) buildSnap {
	s := buildSnap{rounds: sim.Rounds(), messages: sim.Messages(), words: sim.Words(), schemes: res.Schemes}
	for v := 0; v < sim.N(); v++ {
		s.peaks = append(s.peaks, sim.Mem(v).Peak())
	}
	return s
}

func requireBuildsEqual(t *testing.T, got, want buildSnap) {
	t.Helper()
	if got.rounds != want.rounds || got.messages != want.messages || got.words != want.words {
		t.Fatalf("counters differ: rounds %d vs %d, messages %d vs %d, words %d vs %d",
			got.rounds, want.rounds, got.messages, want.messages, got.words, want.words)
	}
	if !reflect.DeepEqual(got.peaks, want.peaks) {
		t.Fatal("per-vertex meter peaks differ")
	}
	if len(got.schemes) != len(want.schemes) {
		t.Fatalf("scheme counts differ: %d vs %d", len(got.schemes), len(want.schemes))
	}
	for j := range want.schemes {
		requireSchemesEqual(t, got.schemes[j], want.schemes[j])
	}
}

func TestBuildDistributedResumeEveryCut(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	g, err := graph.Generate(graph.FamilyErdosRenyi, 100, r)
	if err != nil {
		t.Fatal(err)
	}
	trees := makeTrees(t, g, []int{0, 10}, "dfs", 4)
	opts := DistOptions{Seed: 5}

	build := func(ck *congest.Checkpointer) (buildSnap, error) {
		sim := congest.NewTopo(graph.FromGraph(g), congest.WithSeed(opts.Seed))
		if err := ck.Attach(sim); err != nil {
			return buildSnap{}, err
		}
		o := opts
		o.Ckpt = ck
		res, err := BuildDistributed(sim, trees, o)
		if err != nil {
			return buildSnap{}, err
		}
		if err := ck.Err(); err != nil {
			return buildSnap{}, err
		}
		return captureBuild(sim, res), nil
	}

	ref, err := build(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Full build under a checkpointer, squirrelling away the snapshot after
	// each of the ten phases.
	dir := t.TempDir()
	live := filepath.Join(dir, "build.ckpt")
	ck := congest.NewCheckpointer(live, 0)
	var cuts []string
	var units []string
	ck.SetOnMark(func(unit string, step int64) {
		raw, err := os.ReadFile(live)
		if err != nil {
			t.Errorf("read checkpoint after %s: %v", unit, err)
			return
		}
		cut := filepath.Join(dir, fmt.Sprintf("cut-%02d.ckpt", step))
		if err := os.WriteFile(cut, raw, 0o644); err != nil {
			t.Errorf("copy checkpoint after %s: %v", unit, err)
			return
		}
		cuts = append(cuts, cut)
		units = append(units, unit)
	})
	full, err := build(ck)
	if err != nil {
		t.Fatal(err)
	}
	requireBuildsEqual(t, full, ref) // checkpointing must not perturb the build
	if len(cuts) != 10 {
		t.Fatalf("recorded %d cut points, want 10 (units: %v)", len(cuts), units)
	}

	for i, cut := range cuts {
		t.Run(units[i], func(t *testing.T) {
			ckr, err := congest.ResumeCheckpointer(cut, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := build(ckr)
			if err != nil {
				t.Fatal(err)
			}
			requireBuildsEqual(t, got, ref)
		})
	}
}

// TestLocalDFSMidRunResume cuts a build inside local-dfs with a mid-Run
// checkpoint while some trees have kicked off and others are still asleep
// on their start-offset timers, then resumes the checkpoint on a fresh
// builder at a different shard count. The finished build must equal an
// uninterrupted one: the timers and the rest of the phase's state travel in
// the checkpoint, and the rebuilt kickoff schedule starts no tree twice.
func TestLocalDFSMidRunResume(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	g, err := graph.Generate(graph.FamilyErdosRenyi, 100, r)
	if err != nil {
		t.Fatal(err)
	}
	trees := makeTrees(t, g, []int{0, 10, 20, 30, 40, 50}, "dfs", 4)
	const dfs = 7 // index of local-dfs in phases()

	// setup returns a builder that has run every phase before local-dfs.
	setup := func(shards int) *distBuilder {
		sim := congest.NewTopo(graph.FromGraph(g), congest.WithSeed(5), congest.WithWorkers(shards))
		b := newDistBuilder(sim, trees, DistOptions{Seed: 5})
		for _, ph := range b.phases()[:dfs] {
			if err := ph.run(); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	// finish runs local-dfs and the phases after it.
	finish := func(b *distBuilder) buildSnap {
		res := &DistResult{}
		for _, ph := range b.phases()[dfs:] {
			if err := ph.run(); err != nil {
				t.Fatal(err)
			}
		}
		for _, st := range b.ts {
			res.Schemes = append(res.Schemes, st.finish())
		}
		return captureBuild(b.sim, res)
	}
	ref := finish(setup(1))

	b := setup(1)
	lo, hi := b.ts[0].offset, b.ts[0].offset
	for _, st := range b.ts {
		lo, hi = min(lo, st.offset), max(hi, st.offset)
	}
	cut := (lo + hi) / 2
	if cut <= lo || cut >= hi {
		t.Fatalf("tree offsets span [%d, %d]: no round has both started and sleeping trees", lo, hi)
	}
	path := filepath.Join(t.TempDir(), "dfs.ckpt")
	ckw := congest.NewCheckpointer(path, int64(cut))
	ckw.MidRun(true)
	if err := ckw.Attach(b.sim); err != nil {
		t.Fatal(err)
	}
	if err := ckw.Register(b); err != nil {
		t.Fatal(err)
	}
	b.cap = cut // the "crash": local-dfs stops after cut rounds
	if err := b.phaseLocalDFS(); err == nil {
		t.Fatalf("local-dfs finished within %d rounds; the cut is not inside the phase", cut)
	}
	if err := ckw.Err(); err != nil {
		t.Fatal(err)
	}

	resumed := setup(4)
	ckr, err := congest.ResumeCheckpointer(path, int64(cut))
	if err != nil {
		t.Fatal(err)
	}
	if err := ckr.Attach(resumed.sim); err != nil {
		t.Fatal(err)
	}
	if err := ckr.Register(resumed); err != nil {
		t.Fatal(err)
	}
	if !resumed.sim.ResumePending() {
		t.Fatal("mid-Run checkpoint did not arm a resume")
	}
	requireBuildsEqual(t, finish(resumed), ref)
}

// TestBuilderOldSectionsRestore: a version-2 builder section (a tree's block
// followed by one kickoff flag per member) and a version-1 section (no
// flags) restore to exactly the state the current version-3 section
// carries; the v2 flags are read and discarded. One tree keeps the v2 flags
// at the end of the section.
func TestBuilderOldSectionsRestore(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	g, err := graph.Generate(graph.FamilyErdosRenyi, 60, r)
	if err != nil {
		t.Fatal(err)
	}
	trees := makeTrees(t, g, []int{0}, "dfs", 4)
	const dfs = 7 // index of local-dfs in phases(): cut with DFS state set
	b := newDistBuilder(congest.NewTopo(graph.FromGraph(g), congest.WithSeed(5)), trees, DistOptions{Seed: 5})
	for _, ph := range b.phases()[:dfs+1] {
		if err := ph.run(); err != nil {
			t.Fatal(err)
		}
	}
	want := b.AppendCkpt(nil)
	if want[0] != 3 {
		t.Fatalf("section version %d, want 3", want[0])
	}
	for _, version := range []uint64{1, 2} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			old := append([]uint64{version}, want[1:]...)
			if version == 2 {
				for range b.ts[0].verts {
					old = append(old, 1) // every member kicked
				}
			}
			fresh := newDistBuilder(congest.NewTopo(graph.FromGraph(g), congest.WithSeed(5)), trees, DistOptions{Seed: 5})
			if err := fresh.RestoreCkpt(old); err != nil {
				t.Fatal(err)
			}
			if got := fresh.AppendCkpt(nil); !reflect.DeepEqual(got, want) {
				t.Fatal("restored builder re-serialises differently from the section it came from")
			}
		})
	}
	if err := b.RestoreCkpt(append([]uint64{4}, want[1:]...)); err == nil {
		t.Fatal("a future builder section version restored")
	}
}
