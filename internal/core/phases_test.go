package core

// The tree-routing stage of a build is a loop over ten phases, and the
// boundary between two phases is the one point where a build can be cut:
// nothing is in flight there, and the next phase resumes from the builder's
// state and the engine's counters and meters alone. The pre-tree phases
// replay deterministically from Options.Seed. This file pins, through the
// build's trace, that every cut sits where the previous phase ended and is
// reached with the same cost at every shard count.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/trace"
)

// cutBuild is one traced build: its tree-routing span, the build-wide
// counters and meter peaks, and the scheme.
type cutBuild struct {
	tree                    *trace.SpanExport
	rounds, messages, words int64
	peaks                   []int64
	scheme                  *Scheme
	forked                  bool
}

// TestBuildCheckpointResumeEveryCut builds a 33×33 grid three times from the
// same seed: a one-shard reference, a one-shard rebuild on a fresh simulator
// and a four-shard build, whose larger rounds cross the engine's fork
// threshold. In each, the ten tree-routing phase spans must partition the
// tree-routing span and its Stats.PhaseRounds entry without gaps. Per cut
// (the shard widths alternate across cuts), the phase must start in the
// round the reference's does and cost the same rounds, messages, words and
// peak-memory growth. The three schemes, counters and meter peaks must be
// equal.
func TestBuildCheckpointResumeEveryCut(t *testing.T) {
	const (
		n    = 33 * 33
		k    = 3
		seed = 42
	)
	g, err := graph.GenerateCSR(graph.FamilyGrid, n, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	build := func(workers int) cutBuild {
		rec := trace.NewRecorder()
		sim := congest.NewTopo(g, congest.WithWorkers(workers), congest.WithTrace(rec))
		rec.Attach(sim)
		s, err := Build(sim, Options{K: k, Seed: seed, Epsilon: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		b := cutBuild{rounds: sim.Rounds(), messages: sim.Messages(), words: sim.Words(), scheme: s}
		for v := 0; v < n; v++ {
			b.peaks = append(b.peaks, sim.Mem(v).Peak())
		}
		steps, deliveries := sim.ParallelRounds()
		b.forked = steps > 0 && deliveries > 0
		b.tree = treeRoutingSpan(t, rec)
		cuts := b.tree.Children
		if len(cuts) != 10 {
			t.Fatalf("workers=%d: %d tree-routing phase spans, want 10", workers, len(cuts))
		}
		var rounds, messages, words int64
		at := b.tree.StartRound
		for _, ph := range cuts {
			if ph.StartRound != at {
				t.Fatalf("workers=%d: phase %s starts in round %d, the previous cut is at %d", workers, ph.Name, ph.StartRound, at)
			}
			at += ph.Rounds
			rounds, messages, words = rounds+ph.Rounds, messages+ph.Messages, words+ph.Words
		}
		if rounds != b.tree.Rounds || messages != b.tree.Messages || words != b.tree.Words {
			t.Fatalf("workers=%d: phases cost %d rounds, %d messages, %d words; tree-routing %d, %d, %d",
				workers, rounds, messages, words, b.tree.Rounds, b.tree.Messages, b.tree.Words)
		}
		if got := s.Stats.PhaseRounds["tree-routing"]; got != rounds {
			t.Fatalf("workers=%d: PhaseRounds[tree-routing] = %d, the phases ran %d", workers, got, rounds)
		}
		return b
	}
	requireEqual := func(t *testing.T, got, want cutBuild, label string) {
		t.Helper()
		if got.rounds != want.rounds || got.messages != want.messages || got.words != want.words {
			t.Fatalf("%s: counters differ: rounds %d vs %d, messages %d vs %d, words %d vs %d",
				label, got.rounds, want.rounds, got.messages, want.messages, got.words, want.words)
		}
		if !reflect.DeepEqual(got.peaks, want.peaks) {
			t.Fatalf("%s: per-vertex meter peaks differ", label)
		}
		if !reflect.DeepEqual(got.scheme.Stats, want.scheme.Stats) {
			t.Fatalf("%s: stats differ:\n got %+v\nwant %+v", label, got.scheme.Stats, want.scheme.Stats)
		}
		if !reflect.DeepEqual(got.scheme, want.scheme) {
			t.Fatalf("%s: schemes differ", label)
		}
	}

	ref := build(1)
	byWidth := map[int]cutBuild{1: build(1), 4: build(4)}
	if !byWidth[4].forked {
		t.Fatal("workers=4: the build never forked")
	}
	for workers, b := range byWidth {
		requireEqual(t, b, ref, fmt.Sprintf("workers=%d", workers))
	}

	for i, want := range ref.tree.Children {
		workers := 1
		if i%2 == 1 {
			workers = 4
		}
		t.Run(fmt.Sprintf("tree:%s/workers=%d", want.Name, workers), func(t *testing.T) {
			got := byWidth[workers].tree.Children[i]
			if got.Name != want.Name {
				t.Fatalf("cut %d is phase %s, want %s", i, got.Name, want.Name)
			}
			gotPeak, wantPeak := got.PeakMemAfter-got.PeakMemBefore, want.PeakMemAfter-want.PeakMemBefore
			if got.StartRound != want.StartRound || got.Rounds != want.Rounds ||
				got.Messages != want.Messages || got.Words != want.Words || gotPeak != wantPeak {
				t.Fatalf("phase cost differs: start %d vs %d, rounds %d vs %d, messages %d vs %d, words %d vs %d, peak growth %d vs %d",
					got.StartRound, want.StartRound, got.Rounds, want.Rounds, got.Messages, want.Messages,
					got.Words, want.Words, gotPeak, wantPeak)
			}
		})
	}
}

// treeRoutingSpan returns the top-level tree-routing span of rec's export.
func treeRoutingSpan(t *testing.T, rec *trace.Recorder) *trace.SpanExport {
	t.Helper()
	spans := rec.Export().Spans
	for i := range spans {
		if spans[i].Name == "tree-routing" {
			return &spans[i]
		}
	}
	t.Fatal("no tree-routing span recorded")
	return nil
}

// TestBuildUnitMarksAreQuiescent: every tree-routing phase ends at a
// quiescent point. The last round sample inside each of the ten phase spans
// shows no words queued on any edge, while traffic did queue within the
// phases, so the sampler sees the backlog the cuts must be free of.
func TestBuildUnitMarksAreQuiescent(t *testing.T) {
	g, err := graph.GenerateCSR(graph.FamilyGrid, 256, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	sim := congest.NewTopo(g, congest.WithTrace(rec))
	rec.Attach(sim)
	if _, err := Build(sim, Options{K: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	cuts := treeRoutingSpan(t, rec).Children
	if len(cuts) != 10 {
		t.Fatalf("%d tree-routing phase spans, want the 10 phases", len(cuts))
	}
	samples := rec.Export().Samples
	var queued int64
	for _, ph := range cuts {
		start, end := ph.StartRound, ph.StartRound+ph.Rounds
		var last *trace.RoundSample
		for i := range samples {
			if s := &samples[i]; s.Round > start && s.Round <= end {
				last = s
				queued = max(queued, s.Backlog)
			}
		}
		if last == nil {
			t.Fatalf("phase %s: no round sample in rounds (%d, %d]", ph.Name, start, end)
		}
		if last.Round != end || last.Backlog != 0 {
			t.Errorf("phase %s: last sample at round %d of %d has %d words queued, want a drained cut",
				ph.Name, last.Round, end, last.Backlog)
		}
	}
	if queued == 0 {
		t.Fatal("no tree-routing round queued any words; the backlog probe is vacuous")
	}
}
