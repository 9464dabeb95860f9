package congest

// Edge-queue ring tests: wraparound and growth while wrapped under capacity
// pacing (against a plain-slice FIFO reference), every fault path on a
// wrapped ring (against the same run on a ring that never wraps), and the
// capacity bound the ring exists for: an edge's ring is the next power of
// two of its peak backlog.

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"lowmemroute/internal/faults"
	"lowmemroute/internal/graph"
)

// backlogSends is the send schedule of the ring workload: in each of its
// rounds vertex 0 sends these word counts to vertex 1. Eight words a round
// over a 4-word edge keep a growing backlog, so the front advances while
// pushes land behind it: the ring wraps, and grows while wrapped.
var backlogSends = [][]int{
	{3, 3, 2}, {1, 5}, {3, 3, 2}, {2, 2, 2, 2}, {7, 1}, {3, 3, 2}, {1, 1, 1, 5},
	{3, 3, 2}, {2, 6}, {3, 3, 2}, {4, 4}, {1, 2, 3, 2}, {3, 3, 2}, {5, 3},
}

// refPacing replays sends through a plain-slice FIFO with the engine's
// pacing rule (capacity words per round, the front message first, a message
// crossing over as many rounds as it needs) and returns each message's
// arrival round, in send order.
func refPacing(sends [][]int, capacity int) []int {
	var q, arrivals []int
	sent := 0
	for r := 0; r < len(sends) || len(q) > 0; r++ {
		if r < len(sends) {
			q = append(q, sends[r]...)
		}
		for budget := capacity; len(q) > 0; {
			if rem := q[0] - sent; rem > budget {
				sent += budget
				break
			} else {
				budget -= rem
			}
			sent = 0
			q = q[1:]
			arrivals = append(arrivals, r+1)
		}
	}
	return arrivals
}

// ringRun is everything observable about one run of the ring workload, plus
// what the sender saw of its ring (not part of the equality).
type ringRun struct {
	executed                int
	rounds, messages, words int64
	ctr                     faults.Counters
	log                     []rcvd
	wrapped, grewWrapped    bool
}

// ringLayout presets edge 0->1's ring before the run: nil keeps the default
// (empty, grown on demand); otherwise a ring of len slots whose front
// starts at head.
type ringLayout struct{ len, head int }

// runRing runs the ring workload on the path 0-1 with Ext-carrying payloads
// (so lost and discarded messages recycle arena chunks) for maxRounds
// rounds.
func runRing(t testing.TB, layout *ringLayout, maxRounds int, opts ...Option) ringRun {
	t.Helper()
	g := graph.Path(2, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := newGraphSim(g, opts...)
	s.ensureTopology()
	e := s.edgeID(0, 1)
	q := &s.queues[e]
	if layout != nil {
		*q = edgeQueue{buf: make([]Message, layout.len), head: int32(layout.head)}
	}
	var res ringRun
	res.executed = s.Run([]int{0}, maxRounds, func(v int, ctx *Ctx) {
		if v == 1 {
			for _, m := range ctx.In() {
				r := rcvd{Round: ctx.Round(), From: m.From, Words: m.Words, Payload: m.Payload}
				r.Payload.Ext = append([]uint64(nil), m.Payload.Ext...)
				res.log = append(res.log, r)
			}
			return
		}
		r := ctx.Round()
		if r >= len(backlogSends) {
			return
		}
		head, size := q.head, len(q.buf)
		seq := 0
		for _, b := range backlogSends[:r] {
			seq += len(b)
		}
		for i, w := range backlogSends[r] {
			ext := ctx.Ext(1)
			ext[0] = uint64(seq + i)
			ctx.Send(1, Payload{Kind: 1, W0: uint64(seq + i), Ext: ext}, w)
		}
		if int(q.head)+int(q.n) > len(q.buf) {
			res.wrapped = true
		}
		if len(q.buf) > size && head != 0 {
			res.grewWrapped = true
		}
		ctx.Wake()
	})
	res.rounds, res.messages, res.words = s.Rounds(), s.Messages(), s.Words()
	res.ctr = s.FaultCounters()
	return res
}

func requireRingRunsEqual(t *testing.T, got, want ringRun) {
	t.Helper()
	if got.executed != want.executed || got.rounds != want.rounds || got.messages != want.messages || got.words != want.words {
		t.Fatalf("counters differ: executed %d vs %d, rounds %d vs %d, messages %d vs %d, words %d vs %d",
			got.executed, want.executed, got.rounds, want.rounds, got.messages, want.messages, got.words, want.words)
	}
	if got.ctr != want.ctr {
		t.Fatalf("fault counters differ: %+v vs %+v", got.ctr, want.ctr)
	}
	if !reflect.DeepEqual(got.log, want.log) {
		t.Fatalf("delivery logs differ:\ngot:  %v\nwant: %v", got.log, want.log)
	}
}

// TestRingWrapUnderPacing: with the ring wrapping and growing while
// wrapped, every message arrives in FIFO order in the round the plain-slice
// reference predicts, with the idle fast-forward on or off.
func TestRingWrapUnderPacing(t *testing.T) {
	want := refPacing(backlogSends, DefaultEdgeCapacity)
	for _, ff := range []bool{true, false} {
		t.Run(fmt.Sprintf("fastforward=%v", ff), func(t *testing.T) {
			got := runRing(t, nil, 1000, WithIdleFastForward(ff))
			if !got.wrapped || !got.grewWrapped {
				t.Fatalf("ring wrapped=%v, grew while wrapped=%v: the workload no longer exercises the ring", got.wrapped, got.grewWrapped)
			}
			if len(got.log) != len(want) {
				t.Fatalf("delivered %d messages, want %d", len(got.log), len(want))
			}
			for i, m := range got.log {
				if m.Payload.W0 != uint64(i) || m.Round != want[i] {
					t.Fatalf("delivery %d: message %d in round %d, want message %d in round %d",
						i, m.Payload.W0, m.Round, i, want[i])
				}
			}
		})
	}
}

// TestRingFaultPathsWrapped runs every fault class on the ring workload
// three ways: a ring presized so it never wraps or grows (the layout of a
// plain slice), the default ring (wraps and grows), and a small ring whose
// front starts near its end (wraps from the first round). All three must
// deliver the same messages in the same rounds with the same fault tallies.
func TestRingFaultPathsWrapped(t *testing.T) {
	clean := runRing(t, nil, 1000)
	plans := []struct {
		name string
		plan *faults.Plan
		want func(ringRun) bool // the fault path under test fired
	}{
		{"drop-retry", &faults.Plan{Seed: 3, Drop: 0.3}, func(r ringRun) bool { return r.ctr.Retried > 0 && r.ctr.Lost == 0 }},
		{"lost", &faults.Plan{Seed: 3, Drop: 0.5, RetryBudget: 1}, func(r ringRun) bool { return r.ctr.Lost > 0 && r.ctr.Retried > 0 }},
		{"dup", &faults.Plan{Seed: 4, Duplicate: 0.3}, func(r ringRun) bool { return r.ctr.Duplicated > 0 }},
		{"delay", &faults.Plan{Seed: 5, Delay: 3}, func(r ringRun) bool { return r.ctr.DelayRounds > 0 }},
		{"crash-forever", &faults.Plan{Crashes: []faults.Crash{{Vertex: 1, From: 9, Until: faults.Forever}}},
			func(r ringRun) bool { return r.ctr.Discarded > 0 }},
		{"partition-forever", &faults.Plan{Partitions: []faults.Partition{{Members: []int{0}, From: 9, Until: faults.Forever}}},
			func(r ringRun) bool { return r.ctr.Discarded > 0 }},
		// A healing partition holds the backlog: nothing is lost, but the
		// last delivery comes later than in the clean run.
		{"partition-heals", &faults.Plan{Partitions: []faults.Partition{{Members: []int{1}, From: 4, Until: 12}}},
			func(r ringRun) bool {
				return r.ctr.Discarded == 0 && len(r.log) == len(clean.log) && r.executed > clean.executed
			}},
	}
	for _, tc := range plans {
		t.Run(tc.name, func(t *testing.T) {
			linear := runRing(t, &ringLayout{len: 1024}, 1000, WithFaults(tc.plan))
			if !tc.want(linear) {
				t.Fatalf("plan injected %+v: the fault path under test did not fire", linear.ctr)
			}
			if linear.wrapped || linear.grewWrapped {
				t.Fatal("the presized reference ring wrapped")
			}
			if linear.ctr.Dropped != linear.ctr.Retried+linear.ctr.Lost {
				t.Fatalf("Dropped != Retried + Lost: %+v", linear.ctr)
			}
			for _, layout := range []*ringLayout{nil, {len: 8, head: 6}} {
				got := runRing(t, layout, 1000, WithFaults(tc.plan))
				if !got.wrapped {
					t.Fatalf("layout %+v: ring never wrapped", layout)
				}
				requireRingRunsEqual(t, got, linear)
			}
		})
	}
}

// wrappingLayout starts the ring full-circle: a 4-slot ring whose front is
// its last slot, so the first round's sends already wrap.
var wrappingLayout = &ringLayout{len: 4, head: 3}

// TestRingCapacityBound: after backlogged runs, every edge's ring holds at
// most the next power of two of that edge's peak live count. The sender's
// step is the only place an edge's count grows, so the peak is read there.
func TestRingCapacityBound(t *testing.T) {
	g := graph.Torus(8, 8, graph.UnitWeights, rand.New(rand.NewSource(3)))
	s := newGraphSim(g, WithWorkers(1))
	s.ensureTopology()
	peak := make([]int32, len(s.queues))
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	for run := 0; run < 2; run++ {
		s.Run(all, 500, func(v int, ctx *Ctx) {
			if ctx.Round() >= 12 {
				return
			}
			for _, nb := range neighbors(s.Topo(), v) {
				for i := 0; i <= (v+int(nb)+ctx.Round())%3; i++ {
					ctx.Send(int(nb), Payload{W0: uint64(v)}, 1+(v+int(nb)+ctx.Round()+i)%7)
				}
			}
			for e := s.outStart[v]; e < s.outStart[v+1]; e++ {
				peak[e] = max(peak[e], s.queues[e].n)
			}
			ctx.Wake()
		})
	}
	for e := range s.queues {
		if p := peak[e]; p == 0 {
			t.Fatalf("edge %d carried no traffic", e)
		} else if got, bound := len(s.queues[e].buf), 1<<bits.Len32(uint32(p-1)); got > bound {
			t.Fatalf("edge %d: ring of %d slots for a peak backlog of %d (bound %d)", e, got, p, bound)
		}
	}
}
