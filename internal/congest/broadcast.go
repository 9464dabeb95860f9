package congest

import (
	"sort"

	"lowmemroute/internal/faults"
	"lowmemroute/internal/trace"
)

// BroadcastMsg is a message disseminated to every vertex via the BFS tree of
// the communication graph (Lemma 1 in the paper). Unlike a point-to-point
// message's, its body is the caller's: the analytic primitives hand the
// caller's messages to the handlers directly, so Body must stay valid for
// the duration of the call, and handlers read it in place.
type BroadcastMsg struct {
	Origin  int
	Payload Payload
	Words   int
	Body    []uint64
}

// BodyBufs keeps one reusable body buffer per broadcast message index, so a
// builder that broadcasts every iteration encodes its bodies without
// allocating once the buffers are warm.
type BodyBufs [][]uint64

// Get returns the body buffer of message index i, resized to n words. It
// stays valid, and the caller's, until the next Get of the same index.
func (b *BodyBufs) Get(i, n int) []uint64 {
	for len(*b) <= i {
		*b = append(*b, nil)
	}
	if cap((*b)[i]) < n {
		(*b)[i] = make([]uint64, n)
	}
	return (*b)[i][:n]
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
//
// Under a fault plan every (vertex, message) delivery is rolled by
// analyticFaults.deliver on the stream keyed by (v, message index). A lost
// message is withheld from that vertex's Delivery, and a vertex that
// received nothing is skipped. A retransmission re-buffers the message at
// the receiving tree hop, so it spikes the meter like the delivery itself.
func (s *Simulator) Broadcast(msgs []BroadcastMsg, handle func(v int, d *Delivery)) {
	if len(msgs) == 0 {
		return
	}
	n := s.N()
	a := analyticFaults{f: s.ensureFaults(), clock: s.rounds}
	var totalWords, maxWords int64
	for j := range msgs {
		w := msgs[j].wireWords()
		totalWords += w
		maxWords = max(maxWords, w)
	}
	d := &s.delivery
	*d = Delivery{msgs: msgs}
	if a.f != nil {
		if cap(s.bcastLost) < len(msgs) {
			s.bcastLost = make([]bool, len(msgs))
		}
		d.lost = s.bcastLost[:len(msgs)]
	}
	for v := 0; v < n; v++ {
		var load int64 // largest message buffered at v
		if handle != nil {
			load = maxWords
		}
		got := true
		if a.f != nil {
			load, got = a.reach(v, msgs, d.lost, handle != nil)
		}
		s.meters[v].Spike(load)
		if handle != nil && got {
			d.meter = &s.meters[v]
			handle(v, d)
		}
	}
	*d = Delivery{}
	s.chargeAnalytic(trace.KindBroadcast, len(msgs), n,
		int64(len(msgs))*int64(n-1), totalWords*int64(n-1), &a)
}

// Convergecast aggregates M messages (one per origin) up the BFS tree to a
// sink that then learns all of them; it has the same O(M + D) pipelined cost
// as Broadcast. handle is invoked at the sink for every message, in origin
// order; it must treat the message as read-only. Under a fault plan each
// origin's delivery to the sink is rolled like a Broadcast delivery, keyed on
// (sink, origin-order index); a crashed sink learns nothing.
func (s *Simulator) Convergecast(sink int, msgs []BroadcastMsg, handle func(m *BroadcastMsg)) {
	if len(msgs) == 0 {
		return
	}
	sorted := append([]BroadcastMsg(nil), msgs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Origin < sorted[j].Origin })
	a := analyticFaults{f: s.ensureFaults(), clock: s.rounds}
	var totalWords int64
	for j := range sorted {
		m := &sorted[j]
		w := m.wireWords()
		totalWords += w
		if a.f != nil {
			ok, retries := a.deliver(sink, m.Origin, j, w)
			if !ok {
				continue
			}
			if retries > 0 {
				s.meters[sink].Spike(w)
			}
		}
		if handle != nil {
			s.meters[sink].Spike(w)
			handle(m)
		}
	}
	// Each message travels at most D hops to the sink.
	s.chargeAnalytic(trace.KindConvergecast, len(sorted), len(sorted),
		int64(len(sorted))*int64(s.d), totalWords*int64(s.d), &a)
}

// chargeAnalytic charges one analytic primitive of count pipelined
// messages: count + 2D rounds and the clean wire cost (msgs messages of
// words words in all), plus under a fault plan the worst delivery's
// retransmission rounds (the pipeline absorbs the others in parallel) and
// every failed transmission's wire cost. It then emits the primitive's
// trace sample.
func (s *Simulator) chargeAnalytic(kind string, count, active int, msgs, words int64, a *analyticFaults) {
	rounds := int64(count) + 2*int64(s.d) + int64(a.maxRetries)
	msgs += a.ctr.Dropped
	words += a.ctr.RetryWords
	s.rounds += rounds
	s.messages += msgs
	s.words += words
	s.faultCtr.Add(a.ctr)
	if s.tracer != nil {
		s.emitSample(s.rounds, kind, rounds, active, msgs, words, a.ctr)
	}
}

// analyticFaults rolls the deliveries of one analytic primitive under the
// simulator's fault plan (f is nil without one, and then nothing is rolled)
// and tallies them: the fault counters, whose Dropped and RetryWords are the
// failed transmissions' wire cost, and the most retransmissions any one
// delivery needed. The clock is the global round the primitive starts in,
// so windows opened by earlier Run phases apply here too.
type analyticFaults struct {
	f          *faults.Compiled
	clock      int64
	ctr        faults.Counters
	maxRetries int
}

// deliver rolls the delivery of message j, w words from origin, to dst. It
// is discarded if either end is down or a partition cuts the pair; otherwise
// each transmission rolls its drop, retransmitting until one survives or the
// plan's retry budget is spent, when the message is lost. It reports whether
// the message arrived and after how many retransmissions.
func (a *analyticFaults) deliver(dst, origin, j int, w int64) (ok bool, retries int) {
	f := a.f
	if down, _ := f.Crashed(dst, a.clock); down {
		a.ctr.Discarded++
		return false, 0
	}
	if down, _ := f.Crashed(origin, a.clock); down {
		a.ctr.Discarded++
		return false, 0
	}
	if dst == origin {
		return true, 0
	}
	if cut, _ := f.CutPair(origin, dst, a.clock); cut {
		a.ctr.Discarded++
		return false, 0
	}
	for f.BroadcastDrop(dst, j, retries) {
		a.ctr.Dropped++
		a.ctr.RetryWords += w
		if retries >= f.Budget() {
			a.ctr.Lost++
			return false, retries
		}
		retries++
	}
	a.ctr.Retried += int64(retries)
	a.maxRetries = max(a.maxRetries, retries)
	return true, retries
}

// reach rolls the delivery of every message to v, marking the lost ones,
// and returns the largest message buffered at v (a retransmitted one, or
// any delivered one when read is set) and whether any message arrived. A
// message lost after retries buffers nothing.
func (a *analyticFaults) reach(v int, msgs []BroadcastMsg, lost []bool, read bool) (load int64, got bool) {
	for j := range msgs {
		w := msgs[j].wireWords()
		ok, retries := a.deliver(v, msgs[j].Origin, j, w)
		lost[j] = !ok
		if ok {
			got = true
			if retries > 0 || read {
				load = max(load, w)
			}
		}
	}
	return load, got
}
