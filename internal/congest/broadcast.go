package congest

import (
	"sort"

	"lowmemroute/internal/faults"
	"lowmemroute/internal/trace"
)

// BroadcastMsg is a message disseminated to every vertex via the BFS tree of
// the communication graph (Lemma 1 in the paper). Unlike point-to-point
// messages, a broadcast payload's Ext tail stays caller-owned: the analytic
// primitives deliver the caller's values directly and never touch the
// payload arena, so the slice must stay valid for the duration of the call.
type BroadcastMsg struct {
	Origin  int
	Payload Payload
	Words   int
}

// wireWords is the message's charged size: zero-word messages count as one.
func (m *BroadcastMsg) wireWords() int64 {
	if m.Words < 1 {
		return 1
	}
	return int64(m.Words)
}

// Delivery is one vertex's view of a Broadcast: the broadcast's messages in
// origin order, shared by every vertex, and which of them reached this
// vertex. It is valid only for the duration of the handler call; handlers
// must treat the messages as read-only.
type Delivery struct {
	msgs  []BroadcastMsg
	lost  []bool // per message: did not reach this vertex; nil when all did
	meter *Meter
}

// Len returns the number of messages in the broadcast, delivered or not.
func (d *Delivery) Len() int { return len(d.msgs) }

// At returns message j if it reached this vertex and nil otherwise.
//
// The pipelined broadcast of Lemma 1 streams the messages through the
// vertex one at a time, so its transient load is one message on top of the
// storage charged so far. Before the handler runs, the engine spikes the
// vertex's meter by the largest message that reached it; At re-spikes by
// message j's size on top of the current charge. A handler that charges
// storage while it reads must therefore read the later messages through At,
// in order, for the meter to see each of them above that charge; a handler
// that charges nothing may read any subset in any order.
func (d *Delivery) At(j int) *BroadcastMsg {
	if d.lost != nil && d.lost[j] {
		return nil
	}
	m := &d.msgs[j]
	d.meter.Spike(m.wireWords())
	return m
}

// Broadcast delivers every message to every vertex, invoking handle once per
// vertex, vertices ascending, with that vertex's Delivery. A handler reads
// only the messages it needs (Delivery.At), so a vertex that cares about a
// few of the M messages costs a few reads, not M handler calls.
//
// Cost charged (Lemma 1): rounds = M + 2D for M messages; every message
// traverses every BFS-tree edge, so messages += M*(n-1). Memory: with a
// handler, each vertex's meter is spiked by the largest message, the
// pipelined stream's in-flight load; anything a handler keeps it charges
// itself.
func (s *Simulator) Broadcast(msgs []BroadcastMsg, handle func(v int, d *Delivery)) {
	if len(msgs) == 0 {
		return
	}
	if f := s.ensureFaults(); f != nil {
		s.broadcastFaulty(f, msgs, handle)
		return
	}
	n := s.N()
	s.rounds += int64(len(msgs)) + 2*int64(s.d)
	var totalWords, maxWords int64
	for j := range msgs {
		w := msgs[j].wireWords()
		totalWords += w
		maxWords = max(maxWords, w)
	}
	s.messages += int64(len(msgs)) * int64(n-1)
	s.words += totalWords * int64(n-1)
	if handle != nil {
		d := &s.delivery
		*d = Delivery{msgs: msgs}
		for v := 0; v < n; v++ {
			d.meter = &s.meters[v]
			d.meter.Spike(maxWords)
			handle(v, d)
		}
		*d = Delivery{}
	}
	if s.tracer != nil {
		s.emitSample(s.rounds, trace.KindBroadcast,
			int64(len(msgs))+2*int64(s.d), n,
			int64(len(msgs))*int64(n-1), totalWords*int64(n-1), faults.Counters{})
	}
}

// broadcastFaulty is Broadcast under a fault plan: every (vertex, message)
// delivery rolls drops on the stream keyed by (v, msg index), retransmitting
// up to the plan's budget before the message is counted Lost and withheld
// from that vertex's Delivery. The pipelined tree absorbs retransmissions in
// parallel, so the round cost grows by the worst per-delivery attempt count,
// while every failed transmission is charged wire cost individually (the
// paper's bounds are measured under faults, not just in the clean run).
// Crashed vertices receive nothing (their handler does not run), crashed
// origins reach no one, and partitions sever origin→vertex pairs; the clock
// is the current global round, so windows opened by earlier Run phases
// apply here too. A retransmission re-buffers the message at the receiving
// tree hop, so it spikes the meter like the delivery itself.
func (s *Simulator) broadcastFaulty(f *faults.Compiled, msgs []BroadcastMsg, handle func(v int, d *Delivery)) {
	n := s.N()
	clock := s.rounds
	var ctr faults.Counters
	var totalWords, extraMsgs, extraWords int64
	maxExtra := 0
	for j := range msgs {
		totalWords += msgs[j].wireWords()
	}
	if cap(s.bcastLost) < len(msgs) {
		s.bcastLost = make([]bool, len(msgs))
	}
	lost := s.bcastLost[:len(msgs)]
	d := &s.delivery
	*d = Delivery{msgs: msgs, lost: lost}
	for v := 0; v < n; v++ {
		vDown, _ := f.Crashed(v, clock)
		var load int64 // largest message buffered at v
		got := false
		for j := range msgs {
			m := &msgs[j]
			w := m.wireWords()
			lost[j] = true
			if vDown {
				ctr.Discarded++
				continue
			}
			if down, _ := f.Crashed(m.Origin, clock); down {
				ctr.Discarded++
				continue
			}
			if v != m.Origin {
				if cut, _ := f.CutPair(m.Origin, v, clock); cut {
					ctr.Discarded++
					continue
				}
				attempt, gaveUp := 0, false
				for f.BroadcastDrop(v, j, attempt) {
					ctr.Dropped++
					ctr.RetryWords += w
					extraMsgs++
					extraWords += w
					if attempt >= f.Budget() {
						gaveUp = true
						break
					}
					attempt++
				}
				if gaveUp {
					ctr.Lost++
					continue
				}
				ctr.Retried += int64(attempt)
				maxExtra = max(maxExtra, attempt)
				if attempt > 0 {
					load = max(load, w)
				}
			}
			lost[j] = false
			got = true
			if handle != nil {
				load = max(load, w)
			}
		}
		s.meters[v].Spike(load)
		if handle != nil && got {
			d.meter = &s.meters[v]
			handle(v, d)
		}
	}
	*d = Delivery{}
	rounds := int64(len(msgs)) + 2*int64(s.d) + int64(maxExtra)
	s.rounds += rounds
	s.messages += int64(len(msgs))*int64(n-1) + extraMsgs
	s.words += totalWords*int64(n-1) + extraWords
	s.faultCtr.Add(ctr)
	if s.tracer != nil {
		s.emitSample(s.rounds, trace.KindBroadcast, rounds, n,
			int64(len(msgs))*int64(n-1)+extraMsgs,
			totalWords*int64(n-1)+extraWords, ctr)
	}
}

// Convergecast aggregates M messages (one per origin) up the BFS tree to a
// sink that then learns all of them; it has the same O(M + D) pipelined cost
// as Broadcast. handle is invoked at the sink for every message, in origin
// order; it must treat the message as read-only.
func (s *Simulator) Convergecast(sink int, msgs []BroadcastMsg, handle func(m *BroadcastMsg)) {
	if len(msgs) == 0 {
		return
	}
	sorted := append([]BroadcastMsg(nil), msgs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Origin < sorted[j].Origin })
	if f := s.ensureFaults(); f != nil {
		s.convergecastFaulty(f, sink, sorted, handle)
		return
	}
	s.rounds += int64(len(sorted)) + 2*int64(s.d)
	var totalWords int64
	for j := range sorted {
		totalWords += sorted[j].wireWords()
	}
	// Each message travels at most D hops to the sink.
	s.messages += int64(len(sorted)) * int64(s.d)
	s.words += totalWords * int64(s.d)
	if handle != nil {
		for j := range sorted {
			m := &sorted[j]
			s.meters[sink].Spike(m.wireWords())
			handle(m)
		}
	}
	if s.tracer != nil {
		s.emitSample(s.rounds, trace.KindConvergecast,
			int64(len(sorted))+2*int64(s.d), len(sorted),
			int64(len(sorted))*int64(s.d), totalWords*int64(s.d), faults.Counters{})
	}
}

// convergecastFaulty mirrors broadcastFaulty for the aggregation direction:
// per-message drop rolls keyed on (sink, origin-order index), bounded
// retransmission, crash and partition checks between each origin and the
// sink. A crashed sink learns nothing (every message is Discarded).
func (s *Simulator) convergecastFaulty(f *faults.Compiled, sink int, sorted []BroadcastMsg, handle func(m *BroadcastMsg)) {
	clock := s.rounds
	var ctr faults.Counters
	var totalWords, extraMsgs, extraWords int64
	maxExtra := 0
	for j := range sorted {
		totalWords += sorted[j].wireWords()
	}
	sinkDown, _ := f.Crashed(sink, clock)
	for j := range sorted {
		m := &sorted[j]
		w := m.wireWords()
		if sinkDown {
			ctr.Discarded++
			continue
		}
		if down, _ := f.Crashed(m.Origin, clock); down {
			ctr.Discarded++
			continue
		}
		if m.Origin != sink {
			if cut, _ := f.CutPair(m.Origin, sink, clock); cut {
				ctr.Discarded++
				continue
			}
			attempt, lost := 0, false
			for f.BroadcastDrop(sink, j, attempt) {
				ctr.Dropped++
				ctr.RetryWords += w
				extraMsgs++
				extraWords += w
				if attempt >= f.Budget() {
					lost = true
					break
				}
				attempt++
			}
			if lost {
				ctr.Lost++
				continue
			}
			ctr.Retried += int64(attempt)
			maxExtra = max(maxExtra, attempt)
			for a := 0; a < attempt; a++ {
				s.meters[sink].Spike(w)
			}
		}
		if handle != nil {
			s.meters[sink].Spike(w)
			handle(m)
		}
	}
	rounds := int64(len(sorted)) + 2*int64(s.d) + int64(maxExtra)
	s.rounds += rounds
	s.messages += int64(len(sorted))*int64(s.d) + extraMsgs
	s.words += totalWords*int64(s.d) + extraWords
	s.faultCtr.Add(ctr)
	if s.tracer != nil {
		s.emitSample(s.rounds, trace.KindConvergecast, rounds, len(sorted),
			int64(len(sorted))*int64(s.d)+extraMsgs,
			totalWords*int64(s.d)+extraWords, ctr)
	}
}
