package congest

// Tests of the round engine itself: worker-count invariance of everything a
// step function can observe, and the edge-capacity pacing semantics (large
// messages cross in ceil(Words/capacity) rounds, FIFO per edge, unlimited
// mode). These pin down the engine contract that the CSR queue layout and
// sharded delivery must preserve; the end-to-end counterpart over a full
// construction is core.TestBuildTraceByteIdentical.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"lowmemroute/internal/graph"
)

// rcvd is one observed delivery: everything about a message a step function
// can see, plus when it saw it.
type rcvd struct {
	Round, From, Words int
	Payload            Payload
}

// TestRunWorkerCountInvariance runs the same flood workload at several
// worker-pool widths and requires identical counters, identical per-vertex
// meter peaks, and — the strong condition — identical per-vertex delivery
// logs: every vertex sees the same messages in the same order in the same
// rounds regardless of how delivery was sharded. Some messages carry
// bodies from round 0 on, so many edges take continuation slots in the same
// forked step phase.
func TestRunWorkerCountInvariance(t *testing.T) {
	const (
		side        = 33 // 1089 vertices: round 0 forks both phases
		floodRounds = 6
	)
	type result struct {
		rounds, messages, words int64
		peaks                   []int64
		logs                    [][]rcvd
		bodies                  [][]uint64
		sim                     *Simulator
	}
	runOnce := func(workers int) result {
		g := graph.Torus(side, side, 1, rand.New(rand.NewSource(3)))
		s := NewTopo(g, WithWorkers(workers))
		all := make([]int, g.N())
		for v := range all {
			all[v] = v
		}
		logs := make([][]rcvd, g.N())
		bodies := make([][]uint64, g.N())
		s.Run(all, floodRounds+1, func(v int, ctx *Ctx) {
			// Each vertex owns logs[v] and bodies[v]; step parallelism never
			// races here.
			in := ctx.In()
			for i := range in {
				m := &in[i]
				logs[v] = append(logs[v], rcvd{Round: ctx.Round(), From: m.From, Words: m.Words, Payload: m.Payload})
				bodies[v] = append(ctx.Body(m, append(bodies[v], uint64(len(logs[v])))), ^uint64(0))
			}
			if ctx.Round() < floodRounds {
				for _, nb := range neighbors(s.Topo(), v) {
					// Payload identifies the send event; Words varies so the
					// capacity pacer splits some messages across rounds.
					k := v + int(nb) + ctx.Round()
					p := Payload{W0: IntWord(v*1000 + ctx.Round())}
					var body []uint64
					if k%5 == 0 {
						body = ctx.Scratch(1 + k%6)
						for i := range body {
							body[i] = uint64(k + i)
						}
					}
					ctx.Send(int(nb), p, 1+k%7, body...)
				}
				ctx.Wake()
			}
		})
		res := result{rounds: s.Rounds(), messages: s.Messages(), words: s.Words(), logs: logs, bodies: bodies, sim: s}
		res.peaks = make([]int64, g.N())
		for v := 0; v < g.N(); v++ {
			res.peaks[v] = s.Mem(v).Peak()
		}
		return res
	}

	base := runOnce(1)
	if base.messages == 0 {
		t.Fatal("workload sent no messages")
	}
	for _, workers := range []int{1, 2, 4, 8, runtime.GOMAXPROCS(0)} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := runOnce(workers)
			requireForked(t, got.sim, workers)
			if got.rounds != base.rounds || got.messages != base.messages || got.words != base.words {
				t.Fatalf("counters differ from workers=1: rounds %d vs %d, messages %d vs %d, words %d vs %d",
					got.rounds, base.rounds, got.messages, base.messages, got.words, base.words)
			}
			if !reflect.DeepEqual(got.peaks, base.peaks) {
				t.Fatalf("per-vertex meter peaks differ from workers=1")
			}
			if !reflect.DeepEqual(got.bodies, base.bodies) {
				t.Fatalf("delivered bodies differ from workers=1")
			}
			for v := range got.logs {
				if !reflect.DeepEqual(got.logs[v], base.logs[v]) {
					t.Fatalf("vertex %d delivery log differs from workers=1:\nworkers=1: %v\nworkers=%d: %v",
						v, base.logs[v], workers, got.logs[v])
				}
			}
		})
	}
}

// requireForked fails unless a simulator with more than one worker ran at
// least one round's step phase and one round's delivery phase on its worker
// pool: an invariance run that stayed below parallelMin compares the serial
// path with itself.
func requireForked(t *testing.T, s *Simulator, workers int) {
	t.Helper()
	if steps, deliveries := s.ParallelRounds(); workers > 1 && (steps == 0 || deliveries == 0) {
		t.Fatalf("workers=%d: %d parallel step rounds, %d parallel delivery rounds; the workload never crossed parallelMin=%d",
			workers, steps, deliveries, parallelMin)
	}
}

// TestPacingLargeMessage checks the bandwidth rule: a message of
// Words > capacity occupies its edge for ceil(Words/capacity) consecutive
// rounds and becomes visible to the receiver one round after the last
// transmission round.
func TestPacingLargeMessage(t *testing.T) {
	cases := []struct {
		capacity, words int
	}{
		{capacity: 4, words: 10}, // ceil(10/4) = 3 rounds on the wire
		{capacity: 4, words: 8},  // exact multiple: 2 rounds
		{capacity: 4, words: 1},  // small message: 1 round
		{capacity: 1, words: 5},  // unit capacity: 5 rounds
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("cap=%d,words=%d", tc.capacity, tc.words), func(t *testing.T) {
			g := graph.Path(2, graph.UnitWeights, rand.New(rand.NewSource(1)))
			s := NewTopo(g, WithEdgeCapacity(tc.capacity))
			gotRound := -1
			s.Run([]int{0}, 100, func(v int, ctx *Ctx) {
				if v == 0 && ctx.Round() == 0 {
					ctx.Send(1, Payload{}, tc.words)
				}
				if v == 1 && len(ctx.In()) > 0 {
					gotRound = ctx.Round()
				}
			})
			wire := (tc.words + tc.capacity - 1) / tc.capacity
			if want := wire; gotRound != want {
				t.Fatalf("message of %d words over capacity-%d edge arrived in round %d, want round %d (ceil(%d/%d) transmission rounds)",
					tc.words, tc.capacity, gotRound, want, tc.words, tc.capacity)
			}
		})
	}
}

// TestPacingFIFOPerEdge checks that a backlogged edge stays FIFO: a large
// message sent first is delivered before any message sent after it on the
// same edge, even when the later message is small enough to fit in an
// earlier round's leftover budget.
func TestPacingFIFOPerEdge(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := NewTopo(g, WithEdgeCapacity(4))
	var order []rcvd
	s.Run([]int{0}, 100, func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			ctx.Send(1, Payload{W0: 1}, 10) // "big": occupies rounds 0..2
			ctx.Send(1, Payload{W0: 2}, 1)  // "small": would fit in round 0's budget, must wait
			ctx.Send(1, Payload{W0: 3}, 3)  // "second": fits round 2's leftover after big+small
		}
		for _, m := range ctx.In() {
			order = append(order, rcvd{Round: ctx.Round(), From: m.From, Words: m.Words, Payload: m.Payload})
		}
	})
	want := []rcvd{
		// big finishes in transmission round 2 (words 4+4+2) leaving budget 2;
		// small (1 word) fits the same round; second (3 words) does not and
		// crosses in round 3.
		{Round: 3, From: 0, Words: 10, Payload: Payload{W0: 1}},
		{Round: 3, From: 0, Words: 1, Payload: Payload{W0: 2}},
		{Round: 4, From: 0, Words: 3, Payload: Payload{W0: 3}},
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("delivery order:\n got %v\nwant %v", order, want)
	}
}

// TestPacingUnlimitedCapacity checks the capacity <= 0 "LOCAL model" switch:
// arbitrarily large messages cross in one round.
func TestPacingUnlimitedCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		capacity := capacity
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			g := graph.Path(2, graph.UnitWeights, rand.New(rand.NewSource(1)))
			s := NewTopo(g, WithEdgeCapacity(capacity))
			var got []rcvd
			s.Run([]int{0}, 10, func(v int, ctx *Ctx) {
				if v == 0 && ctx.Round() == 0 {
					ctx.Send(1, Payload{W0: 1}, 1_000_000) // "huge"
					ctx.Send(1, Payload{W0: 2}, 1)         // "tail"
				}
				for _, m := range ctx.In() {
					got = append(got, rcvd{Round: ctx.Round(), From: m.From, Words: m.Words, Payload: m.Payload})
				}
			})
			want := []rcvd{
				{Round: 1, From: 0, Words: 1_000_000, Payload: Payload{W0: 1}},
				{Round: 1, From: 0, Words: 1, Payload: Payload{W0: 2}},
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("unlimited-capacity delivery:\n got %v\nwant %v", got, want)
			}
		})
	}
}
