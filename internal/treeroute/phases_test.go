package treeroute

// The construction is a loop over ten phases, and the boundary between two
// phases is the one point where a build can be cut: every phase's Run has
// returned, no message is in flight and no timer is armed, so the next
// phase resumes from the builder's per-tree state and the engine's counters,
// meters and fault cursors alone. This file pins that each of those cuts is
// canonical with respect to the engine's shard count.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/faults"
	"lowmemroute/internal/graph"
)

// cutState is everything a phase boundary hands to the next phase.
type cutState struct {
	rounds, messages, words int64
	ctr                     faults.Counters
	current, peaks          []int64
}

func captureCut(sim *congest.Simulator) cutState {
	c := cutState{rounds: sim.Rounds(), messages: sim.Messages(), words: sim.Words(), ctr: sim.FaultCounters()}
	for v := 0; v < sim.N(); v++ {
		c.current = append(c.current, sim.Mem(v).Current())
		c.peaks = append(c.peaks, sim.Mem(v).Peak())
	}
	return c
}

// TestBuildDistributedResumeEveryCut steps a one-shard and a four-shard
// build of the same trees phase by phase in lockstep, under a
// drop/delay/duplicate plan whose cursors carry across the cuts, and
// requires equal builder state, engine counters, fault tallies and
// per-vertex meter levels and peaks at every cut, so a shard count leaking
// into any phase names that phase. Both builds then resume to the end and
// must produce the centralized schemes. Three spanning trees of a 33×33
// grid push rounds past the engine's fork threshold.
func TestBuildDistributedResumeEveryCut(t *testing.T) {
	g, err := graph.GenerateCSR(graph.FamilyGrid, 33*33, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	trees := makeTrees(t, g, []int{0, 544, 1088}, "bfs", 3)
	plan := &faults.Plan{Seed: 9, Drop: 0.1, Delay: 1, Duplicate: 0.1}
	opts := DistOptions{Seed: 12}
	newBuilder := func(workers int) *distBuilder {
		sim := congest.NewTopo(g, congest.WithWorkers(workers), congest.WithFaults(plan))
		return newDistBuilder(sim, trees, opts)
	}
	ref, wide := newBuilder(1), newBuilder(4)
	refPhases, widePhases := ref.phases(), wide.phases()
	if len(refPhases) != 10 {
		t.Fatalf("%d construction phases, want 10", len(refPhases))
	}
	for i, ph := range refPhases {
		ok := t.Run(fmt.Sprintf("tree:%s", ph.name), func(t *testing.T) {
			if err := ph.run(); err != nil {
				t.Fatalf("shards=1: %v", err)
			}
			if err := widePhases[i].run(); err != nil {
				t.Fatalf("shards=4: %v", err)
			}
			got, want := captureCut(wide.sim), captureCut(ref.sim)
			if got.rounds != want.rounds || got.messages != want.messages || got.words != want.words {
				t.Fatalf("counters differ: rounds %d vs %d, messages %d vs %d, words %d vs %d",
					got.rounds, want.rounds, got.messages, want.messages, got.words, want.words)
			}
			if got.ctr != want.ctr {
				t.Fatalf("fault counters differ: %+v vs %+v", got.ctr, want.ctr)
			}
			if !reflect.DeepEqual(got.current, want.current) || !reflect.DeepEqual(got.peaks, want.peaks) {
				t.Fatal("per-vertex meter levels or peaks differ")
			}
			if !reflect.DeepEqual(wide.ts, ref.ts) {
				t.Fatal("per-tree builder state differs")
			}
		})
		if !ok {
			return // later cuts would only repeat the divergence
		}
	}
	if ref.sim.FaultCounters() == (faults.Counters{}) {
		t.Fatal("fault plan injected nothing; the carried fault cursors go untested")
	}
	if steps, deliveries := wide.sim.ParallelRounds(); steps == 0 || deliveries == 0 {
		t.Fatalf("shards=4: %d parallel step rounds, %d parallel delivery rounds; the build never forked", steps, deliveries)
	}
	for j, tr := range trees {
		want := BuildCentralized(tr)
		RequireSchemesEqual(t, ref.ts[j].finish(), want)
		RequireSchemesEqual(t, wide.ts[j].finish(), want)
	}
}
