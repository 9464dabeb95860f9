package congest

// Edge-queue ring tests: wraparound and growth while wrapped under capacity
// pacing (against a plain-slice FIFO reference), bodies riding continuation
// slots that wrap and grow with the ring, every fault path on a wrapped ring
// (against the same run on a ring that never wraps), every fault path
// retiring a message's continuation slots with its head and counting
// messages, not slots, the capacity bound the ring exists for (an edge's ring
// is the next power of two of its peak backlog), the layout (a 40-byte entry
// with no pointers, a 40-byte queue, pointer-free messages), and ring chunks
// sized to the graph.

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

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
	bodies                  [][]uint64
	wrapped, grewWrapped    bool
	// bodyGrewWrapped: a send with a body grew the ring while wrapped;
	// bodySplit: a message's continuation slots straddled the ring's end.
	bodyGrewWrapped, bodySplit bool
}

// ringLayout presets edge 0->1's ring before the run: nil keeps the default
// (empty, grown on demand); otherwise a ring of len slots whose front
// starts at head.
type ringLayout struct{ len, head int }

// runRing runs the ring workload on the path 0-1 with a one-word body on
// every message (so lost and discarded messages retire continuation slots)
// for maxRounds rounds.
func runRing(t testing.TB, layout *ringLayout, maxRounds int, opts ...Option) ringRun {
	return runRingBodies(t, layout, func(int) int { return 1 }, maxRounds, opts...)
}

// runRingBodies is runRing where message seq carries a body of body(seq)
// words, word j being seq<<8 | j.
func runRingBodies(t testing.TB, layout *ringLayout, body func(seq int) int, maxRounds int, opts ...Option) ringRun {
	t.Helper()
	g := graph.Path(2, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := NewTopo(g, opts...)
	s.ensureTopology()
	e := s.edgeID(0, 1)
	q := &s.queues[e]
	if layout != nil {
		*q = edgeQueue{buf: make([]qEntry, layout.len), head: int32(layout.head)}
	}
	var res ringRun
	res.executed = s.Run([]int{0}, maxRounds, func(v int, ctx *Ctx) {
		if v == 1 {
			in := ctx.In()
			for i := range in {
				m := &in[i]
				res.log = append(res.log, rcvd{Round: ctx.Round(), From: m.From, Words: m.Words, Payload: m.Payload})
				res.bodies = append(res.bodies, ctx.Body(m, nil))
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
		bodied := false
		for i, w := range backlogSends[r] {
			buf := ctx.Scratch(body(seq + i))
			for j := range buf {
				buf[j] = uint64((seq+i)<<8 | j)
			}
			at := q.slot(int(q.n))
			ctx.Send(1, Payload{Kind: 1, W0: uint64(seq + i)}, w, buf...)
			if len(buf) > 0 {
				bodied = true
				if at+1+bodySlots(len(buf)) > len(q.buf) {
					res.bodySplit = true
				}
			}
		}
		if int(q.head)+int(q.n) > len(q.buf) {
			res.wrapped = true
		}
		if len(q.buf) > size && head != 0 {
			res.grewWrapped = true
			res.bodyGrewWrapped = res.bodyGrewWrapped || bodied
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
	if !reflect.DeepEqual(got.bodies, want.bodies) {
		t.Fatalf("delivered bodies differ:\ngot:  %v\nwant: %v", got.bodies, want.bodies)
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

// requireOwnBodies fails unless every delivered message carries exactly the
// body runRingBodies gave it.
func requireOwnBodies(t *testing.T, got ringRun, body func(seq int) int) {
	t.Helper()
	for i, m := range got.log {
		seq := int(m.Payload.W0)
		b := got.bodies[i]
		if len(b) != body(seq) {
			t.Fatalf("message %d arrived with a %d-word body, want %d", seq, len(b), body(seq))
		}
		for j, w := range b {
			if w != uint64(seq<<8|j) {
				t.Fatalf("message %d arrived with body %v", seq, b)
			}
		}
	}
}

// TestRingExtTailsGrowInLockstep: messages carry bodies of 0 to 9 words, and
// only from message 5 on, so continuation slots first appear once the ring
// has wrapped, straddle its end and grow with it while wrapped. Every message
// arrives with exactly its own body, in the reference's round: the body
// rides with its head and costs no pacing of its own.
func TestRingExtTailsGrowInLockstep(t *testing.T) {
	want := refPacing(backlogSends, DefaultEdgeCapacity)
	body := func(seq int) int {
		if seq < 5 {
			return 0
		}
		return seq % 10
	}
	for _, layout := range []*ringLayout{nil, wrappingLayout} {
		got := runRingBodies(t, layout, body, 1000)
		if !got.wrapped || !got.bodyGrewWrapped || !got.bodySplit {
			t.Fatalf("layout %+v: ring wrapped=%v, grew while wrapped with bodies=%v, body straddled the end=%v: the workload no longer exercises continuation slots",
				layout, got.wrapped, got.bodyGrewWrapped, got.bodySplit)
		}
		if len(got.log) != len(want) {
			t.Fatalf("layout %+v: delivered %d messages, want %d", layout, len(got.log), len(want))
		}
		for i, m := range got.log {
			if m.Payload.W0 != uint64(i) || m.Round != want[i] {
				t.Fatalf("delivery %d: message %d in round %d, want message %d in round %d", i, m.Payload.W0, m.Round, i, want[i])
			}
		}
		requireOwnBodies(t, got, body)
	}
}

// TestRingFaultPathsReturnChunksOnce: on the discard, duplicate and lost
// paths a message leaves the ring with all its continuation slots, exactly
// once, and fault counters count messages, not slots. Every message carries
// a body of 1 to 9 words, so a path that retired only the head slot would
// misread the body slots after it as messages. Afterwards the queue is
// empty, every delivered message carries its own body, and the sent
// messages are exactly the distinct delivered ones plus the lost and the
// discarded ones.
func TestRingFaultPathsReturnChunksOnce(t *testing.T) {
	plans := []struct {
		name string
		plan *faults.Plan
		want func(faults.Counters) bool
	}{
		{"discard-crash", &faults.Plan{Crashes: []faults.Crash{{Vertex: 1, From: 9, Until: faults.Forever}}},
			func(c faults.Counters) bool { return c.Discarded > 0 }},
		{"discard-partition", &faults.Plan{Partitions: []faults.Partition{{Members: []int{0}, From: 9, Until: faults.Forever}}},
			func(c faults.Counters) bool { return c.Discarded > 0 }},
		{"dup", &faults.Plan{Seed: 4, Duplicate: 0.3}, func(c faults.Counters) bool { return c.Duplicated > 0 }},
		{"lost", &faults.Plan{Seed: 3, Drop: 0.5, RetryBudget: 1}, func(c faults.Counters) bool { return c.Lost > 0 }},
	}
	body := func(seq int) int { return 1 + seq%9 }
	sent := 0
	for _, b := range backlogSends {
		sent += len(b)
	}
	for _, tc := range plans {
		t.Run(tc.name, func(t *testing.T) {
			got := runRingBodies(t, nil, body, 1000, WithFaults(tc.plan))
			if !tc.want(got.ctr) {
				t.Fatalf("plan injected %+v: the fault path under test did not fire", got.ctr)
			}
			requireOwnBodies(t, got, body)
			distinct := make(map[uint64]bool)
			for _, m := range got.log {
				distinct[m.Payload.W0] = true
			}
			if n := int64(len(distinct)) + got.ctr.Lost + got.ctr.Discarded; n != int64(sent) {
				t.Fatalf("%d distinct delivered + %d lost + %d discarded = %d messages, %d sent",
					len(distinct), got.ctr.Lost, got.ctr.Discarded, n, sent)
			}
			if int64(len(got.log)) != int64(len(distinct))+got.ctr.Duplicated {
				t.Fatalf("%d deliveries of %d distinct messages with %d duplicated", len(got.log), len(distinct), got.ctr.Duplicated)
			}
		})
	}
}

// TestQueueEntryLayout: a queued entry is 40 bytes, its body length in the
// slot's padding, and holds no pointer, so rings stay small and the
// collector never scans them; a queue is at most 40 bytes, since the queue
// array is the engine's largest O(m) structure; and a Message and its
// Payload hold no pointer either, so inboxes are never scanned.
func TestQueueEntryLayout(t *testing.T) {
	if sz := unsafe.Sizeof(qEntry{}); sz != 40 {
		t.Fatalf("qEntry is %d bytes, want 40", sz)
	}
	if sz := unsafe.Sizeof(edgeQueue{}); sz > 40 {
		t.Fatalf("edgeQueue is %d bytes, want <= 40", sz)
	}
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
			reflect.Interface, reflect.String, reflect.UnsafePointer:
			t.Fatalf("%s is a %s: it must hold no pointer", path, typ.Kind())
		case reflect.Array:
			walk(typ.Elem(), path+"[i]")
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		}
	}
	for _, v := range []any{qEntry{}, Message{}, Payload{}} {
		typ := reflect.TypeOf(v)
		walk(typ, typ.Name())
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
// most the next power of two of that edge's peak live count, or ringMin
// slots once it has grown at all. The sender's step is the only place an
// edge's count grows, so the peak is read there.
func TestRingCapacityBound(t *testing.T) {
	g := graph.Torus(8, 8, 1, rand.New(rand.NewSource(3)))
	s := NewTopo(g, WithWorkers(1))
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
		} else if got, bound := len(s.queues[e].buf), ringBound(p); got > bound {
			t.Fatalf("edge %d: ring of %d slots for a peak backlog of %d (bound %d)", e, got, p, bound)
		}
	}
}

// ringBound is the largest ring an edge whose live count peaked at p may
// hold: one slot while it never backed up, else the next power of two of p,
// but at least ringMin.
func ringBound(p int32) int {
	if p <= 1 {
		return 1
	}
	return max(ringMin, 1<<bits.Len32(uint32(p-1)))
}

// TestRingChunkSizedToGraph pins the ring chunk size to the simulator: the
// first Run of a fresh 16-vertex star (the delivery benchmark, 30 directed
// edges) carves its rings from 240-slot chunks. With a fixed 4,096-slot
// chunk the same Run allocated about 174 KB.
func TestRingChunkSizedToGraph(t *testing.T) {
	_, run := deliveryWorkload()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 32<<10 {
		t.Errorf("first Run of a fresh 16-vertex star allocated %d B, want at most 32 KB", b)
	}
}
