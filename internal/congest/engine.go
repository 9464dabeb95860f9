package congest

// The round engine. Design goals, in order: bit-identical behaviour with the
// reference semantics (per-edge FIFO, per-round edge bandwidth, inboxes
// sorted by (sender, send order), deterministic active sets), zero
// steady-state allocation, and parallel delivery that cannot race.
//
// Topology is compiled once per graph shape into a CSR (compressed sparse
// row) index over the *directed* edges of the communication graph:
//
//   outStart/outTo  per-sender edge lists, destinations ascending, parallel
//                   edges deduplicated (they share one queue and therefore
//                   one bandwidth budget, exactly like the map-keyed queues
//                   they replace);
//   inStart/inEdges per-destination lists of incoming directed edge ids,
//                   senders ascending;
//   inPos           edge id -> its slot in inEdges.
//
// Every per-round structure (contexts, send buffers, inboxes, queues, the
// dirty-destination worklists, the next-active list, the WakeAt timer heap)
// is owned by the Simulator and recycled across rounds; set membership is
// tracked with an epoch-stamped array instead of maps, so a steady-state
// round performs no allocation and no hashing.
//
// Determinism does not depend on processing order: message delivery into
// inbox[v] walks v's incoming edges in ascending-sender CSR order (giving
// the (From, seq) inbox order directly, with no post-sort), counters are
// sums, and the next-active list is sorted once per round. Delivery is
// therefore safe to shard across the worker pool by destination vertex:
// a shard owns a contiguous destination range, hence its inboxes, queue
// heads and dirty lists are touched by exactly one goroutine, and the
// result is independent of the shard count (worker-count invariance is
// enforced by TestRunWorkerCountInvariance and the core trace test).

import (
	"fmt"
	"slices"
	"sync"

	"lowmemroute/internal/faults"
	"lowmemroute/internal/trace"
)

// serialThreshold is the minimum amount of per-round work (active vertices
// for the step phase, dirty destinations for the delivery phase) before the
// engine bothers spawning the worker pool.
const serialThreshold = 64

// queueCompactMin is the consumed-prefix length beyond which a partially
// drained edge queue is compacted in place (bounding the backing array of a
// perpetually backlogged edge).
const queueCompactMin = 32

// edgeQueue models the pacing of a bandwidth-limited directed edge as a
// FIFO with a consumed prefix. Backlog delays delivery (rounds) but does not
// charge the sender's memory: a real CONGEST processor regenerates outgoing
// messages from its stored state (already charged) rather than holding
// per-edge copies.
// Queue cursors are int32: a directed edge never queues more than 2^31
// messages, and at scale the 8 bytes saved per edge are real — the queue
// array is the engine's largest O(m) structure. The msgs backing array is
// nil until the edge first carries traffic and is compacted back to its
// live suffix, so steady-state footprint is O(m + in-flight), not
// O(m · capacity).
type edgeQueue struct {
	msgs []Message
	head int32 // msgs[:head] already delivered; cleared lazily
	// sent is the number of words of msgs[head] already transmitted in
	// previous rounds (large messages take several rounds to cross).
	sent int32
}

// edgeFaultState is the per-edge-queue fault bookkeeping, kept out of
// edgeQueue and allocated as a parallel slice only when a fault plan is
// installed, so the clean simulator's topology footprint is untouched. seq
// is the lifetime delivery sequence number of the head message — the
// deterministic coordinate of its fault rolls. attempt counts this
// message's failed transmissions, hold its remaining injected delay rounds,
// and rolled whether the delay has been drawn yet.
type edgeFaultState struct {
	seq     uint64
	attempt int32
	hold    int32
	rolled  bool
}

func (q *edgeQueue) empty() bool { return int(q.head) == len(q.msgs) }

// compact releases delivered messages: full resets are free, and a long
// consumed prefix under a persistent backlog is copied out so the backing
// array stays proportional to the live queue.
func (q *edgeQueue) compact() {
	switch {
	case int(q.head) == len(q.msgs):
		q.msgs = q.msgs[:0]
		q.head = 0
	case q.head >= queueCompactMin && 2*int(q.head) >= len(q.msgs):
		n := copy(q.msgs, q.msgs[q.head:])
		clear(q.msgs[n:])
		q.msgs = q.msgs[:n]
		q.head = 0
	}
}

// ensureTopology (re)compiles the CSR edge index and sizes every recycled
// buffer. It runs on the first Run and again only if the graph changed
// shape; steady-state Runs see a single integer comparison.
func (s *Simulator) ensureTopology() {
	var n, m int
	if s.g != nil {
		n, m = s.g.N(), s.g.M()
	} else {
		n, m = s.topo.N(), s.topo.M()
	}
	if s.topoN == n && s.topoM == m && s.outStart != nil {
		return
	}
	s.topoN, s.topoM = n, m

	// Outgoing CSR: destinations sorted ascending per sender, parallel
	// edges deduplicated so they share one queue (and one budget).
	s.outStart = make([]int32, n+1)
	outTo := make([]int32, 0, 2*m)
	for u := 0; u < n; u++ {
		start := len(outTo)
		if s.g != nil {
			for _, nb := range s.g.Neighbors(u) {
				outTo = append(outTo, int32(nb.To))
			}
		} else {
			ts, _ := s.topo.NeighborRange(u)
			outTo = append(outTo, ts...)
		}
		seg := outTo[start:]
		slices.Sort(seg)
		w := 0
		for i, to := range seg {
			if i == 0 || to != seg[w-1] {
				seg[w] = to
				w++
			}
		}
		outTo = outTo[:start+w]
		s.outStart[u+1] = int32(len(outTo))
	}
	s.outTo = outTo
	ne := len(outTo)

	// Incoming CSR: for each destination, the incoming directed edge ids
	// in ascending-sender order (edge ids ascend with their sender, so a
	// counting pass in id order lands them presorted).
	s.inStart = make([]int32, n+1)
	for _, to := range outTo {
		s.inStart[to+1]++
	}
	for v := 0; v < n; v++ {
		s.inStart[v+1] += s.inStart[v]
	}
	s.inEdges = make([]int32, ne)
	s.inPos = make([]int32, ne)
	cursor := make([]int32, n)
	copy(cursor, s.inStart[:n])
	for e := 0; e < ne; e++ {
		to := outTo[e]
		p := cursor[to]
		cursor[to] = p + 1
		s.inEdges[p] = int32(e)
		s.inPos[e] = p
	}

	s.queues = make([]edgeQueue, ne)
	s.dirtyIn = make([]int32, ne)
	s.dirtyCnt = make([]int32, n)
	s.nextStamp = make([]int64, n)
	s.inboxMax = make([]int32, n)
	s.epoch = 0

	shards := s.workers
	if shards < 1 {
		shards = 1
	}
	s.shardBlock = (n + shards - 1) / shards
	if s.shardBlock < 1 {
		s.shardBlock = 1
	}
	s.shardCur = make([][]int32, shards)
	s.shardNxt = make([][]int32, shards)
	s.shardRecv = make([][]int32, shards)
	s.shardMsgs = make([]int64, shards)
	s.shardWords = make([]int64, shards)
	s.shardArena = make([]wordArena, shards)

	// A graph that grew since New needs wider inboxes and meters; existing
	// meter readings are preserved.
	for len(s.inbox) < n {
		s.inbox = append(s.inbox, nil)
	}
	for len(s.meters) < n {
		s.meters = append(s.meters, Meter{})
	}
}

// edgeID returns the directed-edge id of from->to, or -1 if the vertices are
// not adjacent. Binary search over the sender's sorted CSR destinations.
func (s *Simulator) edgeID(from, to int) int32 {
	lo, hi := s.outStart[from], s.outStart[from+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if int(s.outTo[mid]) < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < s.outStart[from+1] && int(s.outTo[lo]) == to {
		return lo
	}
	return -1
}

// Run executes synchronous rounds. Vertices listed in initial are active in
// round 0; afterwards a vertex is active iff it received a message, called
// Wake in the previous round, or has a WakeAt timer due. Run stops when no
// vertex is active, all edge queues are drained and no timer is pending, or
// after maxRounds rounds; it returns the number of rounds executed (also
// added to the simulator's round counter).
func (s *Simulator) Run(initial []int, maxRounds int, step StepFunc) int {
	s.ensureTopology()
	s.ensureFaults()
	s.spinTimers = s.faults != nil && s.faults.HasCrashes()
	// Idle rounds are skipped only when nothing observes them: tracing emits
	// one sample per simulated round, and fault plans make empty rounds
	// meaningful (delays tick, crash windows open and close).
	skipIdle := !s.ffOff && s.tracer == nil && s.faults == nil

	start := 0
	if s.resumePending {
		// Continuing a restored mid-Run checkpoint: the active list,
		// inboxes, edge queues and dirty worklists are already in place
		// (restoreEngineCkpt), so initial is ignored and execution picks up
		// at the recorded round. The epoch bump keeps the stamp array's
		// semantics identical to the uninterrupted run.
		s.resumePending = false
		start = s.resumeRound
		s.epoch++
	} else {
		// Deduplicated, sorted initial active list in the recycled buffer.
		s.epoch++
		act := s.actList[:0]
		for _, v := range initial {
			if s.nextStamp[v] != s.epoch {
				s.nextStamp[v] = s.epoch
				act = append(act, int32(v))
			}
		}
		slices.Sort(act)
		s.actList = act
	}

	pending := 0 // dirty destinations == destinations with queued traffic
	for _, l := range s.shardCur {
		pending += len(l)
	}

	executed := start
	baseRounds := s.rounds
	s.faultBase = baseRounds
	for round := start; round < maxRounds && (len(s.actList) > 0 || pending > 0 || len(s.timers) > 0); round++ {
		// Idle-round fast-forward: with no vertex active, the rounds until
		// the next delivery or the next timer only tick bandwidth budgets.
		// Jump straight there - the rounds counter advances exactly as if
		// each empty round ran (the metric is exact-gated), only the
		// wall-clock work is skipped.
		if len(s.actList) == 0 && skipIdle {
			next := maxRounds
			if len(s.timers) > 0 && s.timers[0].round < next {
				next = s.timers[0].round
			}
			jump := next - round
			if pending > 0 {
				jump = 0
				if s.capacity > 0 {
					jump = s.fastForward(min(next, maxRounds-1) - round)
				}
			}
			round += jump
			executed += jump
			if round >= maxRounds {
				s.ckpt.maybeWriteMid(executed)
				break
			}
			s.epoch++
			s.actList = s.popDue(s.actList[:0], round)
		}

		msgsBefore, wordsBefore := s.messages, s.words
		ctrBefore := s.faultCtr
		s.runRound(round, step)
		executed++

		// Ran vertices have consumed their inboxes; harvest the arena
		// chunks and recycle the buffers. recycleExt nils every Ext, so
		// truncating is enough - no delivered payload outlives the round.
		for _, v := range s.actList {
			in := s.inbox[v]
			s.recycleExt(in)
			s.inbox[v] = in[:0]
		}

		// Register this round's sends (messages are already on their edge
		// queues, appended by Ctx.Send) and collect wake requests, in
		// sender order: next-round wakes join the next active list, later
		// ones become timers, and timers due next round join the list
		// under the same stamp dedupe. Serial: dirty lists, shard worklists
		// and the timer heap are shared across senders.
		s.epoch++
		next := s.nextList[:0]
		for i := range s.actList {
			c := &s.ctxs[i]
			switch at := c.wakeAt; {
			case at == round+1:
				if s.nextStamp[c.v] != s.epoch {
					s.nextStamp[c.v] = s.epoch
					next = append(next, int32(c.v))
				}
			case at > round+1:
				s.pushTimer(at, int32(c.v))
			}
			for _, e := range c.outEdge {
				to := int(s.outTo[e])
				if s.dirtyCnt[to] == 0 {
					sh := to / s.shardBlock
					s.shardCur[sh] = append(s.shardCur[sh], int32(to))
					pending++
				}
				s.dirtyIn[int(s.inStart[to])+int(s.dirtyCnt[to])] = s.inPos[e]
				s.dirtyCnt[to]++
			}
			c.outEdge = c.outEdge[:0]
		}
		next = s.popDue(next, round+1)

		// Deliver within bandwidth, sharded by destination: every shard
		// owns a disjoint set of inboxes, queues and dirty lists.
		// Deliveries made now are processed next round; fault windows are
		// evaluated against that arrival round.
		s.faultClock = baseRounds + int64(round) + 1
		if s.workers > 1 && pending >= serialThreshold {
			var wg sync.WaitGroup
			for sh := range s.shardCur {
				if len(s.shardCur[sh]) == 0 {
					s.deliverShard(sh)
					continue
				}
				wg.Add(1)
				go func(sh int) {
					defer wg.Done()
					s.deliverShard(sh)
				}(sh)
			}
			wg.Wait()
		} else {
			for sh := range s.shardCur {
				s.deliverShard(sh)
			}
		}

		// Aggregate the shard results (sums and list concatenations are
		// order-independent; next is sorted below) and swap in the
		// carried-backlog worklists for the next round.
		pending = 0
		for sh := range s.shardCur {
			s.messages += s.shardMsgs[sh]
			s.words += s.shardWords[sh]
			next = append(next, s.shardRecv[sh]...)
			s.shardCur[sh], s.shardNxt[sh] = s.shardNxt[sh], s.shardCur[sh][:0]
			pending += len(s.shardCur[sh])
		}

		// Merge the shards' fault tallies and apply their deferred sender
		// spikes (sums and max-tracking spikes are order-independent, so
		// the merge order cannot affect determinism). Dropped transmissions
		// consumed wire bandwidth: charge them to the global counters so
		// the paper's message bounds are measured under faults too.
		if s.faults != nil {
			for sh := range s.shardFault {
				s.faultCtr.Add(s.shardFault[sh])
				s.shardFault[sh] = faults.Counters{}
				for _, sp := range s.shardSpike[sh] {
					s.meters[sp.V].Spike(int64(sp.Words))
				}
				s.shardSpike[sh] = s.shardSpike[sh][:0]
			}
			fd := s.faultCtr.Delta(ctrBefore)
			s.messages += fd.Dropped
			s.words += fd.RetryWords
		}

		if s.tracer != nil {
			s.emitSample(baseRounds+int64(executed), trace.KindRound, 1,
				len(s.actList), s.messages-msgsBefore, s.words-wordsBefore,
				s.faultCtr.Delta(ctrBefore))
		}

		if s.obs != nil {
			s.obsSync(baseRounds+int64(executed), s.messages, s.words)
			s.obs.queueDepth.Set(int64(pending))
			s.obs.active.Set(int64(len(s.actList)))
		}

		// Next round's active list: woken + received, sorted ascending.
		slices.Sort(next)
		s.nextList = next
		s.actList, s.nextList = s.nextList, s.actList

		// Mid-Run checkpoint hook: the state here — next round's active
		// list, its delivered inboxes, the carried backlog — is exactly a
		// round boundary, the point restoreEngineCkpt rebuilds.
		if s.ckpt != nil {
			s.ckpt.maybeWriteMid(executed)
		}
	}
	s.rounds += int64(executed)

	// Drop undelivered state and pending timers if we hit maxRounds.
	s.timers = s.timers[:0]
	for _, v := range s.actList {
		in := s.inbox[v]
		s.recycleExt(in)
		s.inbox[v] = in[:0]
		s.inboxMax[v] = 0
	}
	if pending > 0 {
		s.drainAll()
	}
	s.obsRunEnd()
	return executed
}

// runRound executes step for every active vertex, reusing the simulator's
// context pool, serially or on the worker pool.
func (s *Simulator) runRound(round int, step StepFunc) {
	act := s.actList
	if len(act) > len(s.ctxs) {
		s.ctxs = append(s.ctxs, make([]Ctx, len(act)-len(s.ctxs))...)
	}
	if s.workers <= 1 || len(act) < serialThreshold {
		for i := range act {
			s.stepVertex(i, round, step, &s.arena)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (len(act) + s.workers - 1) / s.workers
	for w := 0; w < s.workers; w++ {
		lo := w * chunk
		if lo >= len(act) {
			break
		}
		hi := lo + chunk
		if hi > len(act) {
			hi = len(act)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			ar := &s.shardArena[w]
			for i := lo; i < hi; i++ {
				s.stepVertex(i, round, step, ar)
			}
		}(w, lo, hi)
	}
	wg.Wait()
}

// stepVertex runs one vertex's program for one round in its recycled
// context slot. ar is the executing shard's payload arena.
func (s *Simulator) stepVertex(i, round int, step StepFunc, ar *wordArena) {
	v := int(s.actList[i])
	c := &s.ctxs[i]
	c.sim, c.v, c.round = s, v, round
	c.arena = ar
	c.in = s.inbox[v]
	c.outEdge = c.outEdge[:0]
	c.wakeAt = 0
	// Crash-stop: a down vertex executes nothing and sends nothing. The
	// context fields above are still initialised because the serial enqueue
	// walk reads wakeAt/outEdge for every active slot. Delivery to a down
	// vertex is held upstream (drainDstFaulty), so its inbox is empty
	// except in the round its crash window opens — those messages are
	// wiped with the crash.
	if s.faults != nil && s.faults.HasCrashes() {
		if down, _ := s.faults.Crashed(v, s.faultBase+int64(round)); down {
			s.inboxMax[v] = 0
			return
		}
	}
	// Link buffers are free; charge only the single largest in-flight
	// message as transient working space. The maximum is maintained at
	// delivery time (drainDst), so no inbox rescan here.
	s.meters[v].Spike(int64(s.inboxMax[v]))
	s.inboxMax[v] = 0
	step(v, c)
}

// deliverShard drains the dirty destinations of one shard: for each, its
// backlogged incoming edges in ascending-sender order, each within the edge's
// per-round word budget. Everything written here - inboxes, queues, dirty
// lists, stamps, and the shard's own result slots - is owned by this shard's
// destination range, so shards never contend.
func (s *Simulator) deliverShard(sh int) {
	var msgs, words int64
	recv := s.shardRecv[sh][:0]
	nxt := s.shardNxt[sh][:0]
	for _, v32 := range s.shardCur[sh] {
		v := int(v32)
		var dm, dw int64
		if s.faults != nil {
			dm, dw = s.drainDstFaulty(v, sh)
		} else {
			dm, dw = s.drainDst(v)
		}
		msgs += dm
		words += dw
		if dm > 0 && s.nextStamp[v] != s.epoch {
			s.nextStamp[v] = s.epoch
			recv = append(recv, v32)
		}
		if s.dirtyCnt[v] > 0 {
			nxt = append(nxt, v32)
		}
	}
	s.shardRecv[sh] = recv
	s.shardNxt[sh] = nxt
	s.shardMsgs[sh] = msgs
	s.shardWords[sh] = words
}

// drainDst delivers into destination v from each of its backlogged incoming
// edges, in ascending-sender order, within each edge's bandwidth. Surviving
// backlog is compacted to the front of v's dirty region. Returns delivered
// message and word counts.
func (s *Simulator) drainDst(v int) (int64, int64) {
	var msgs, words int64
	region := s.dirtyIn[s.inStart[v] : int(s.inStart[v])+int(s.dirtyCnt[v])]
	// Carried entries (compacted last round) and this round's arrivals are
	// each already ascending, so this is a near-linear merge for pdqsort.
	slices.Sort(region)
	unlimited := s.capacity <= 0
	live := 0
	inb := s.inbox[v]
	inbMax := int64(s.inboxMax[v])
	for _, p := range region {
		q := &s.queues[s.inEdges[p]]
		budget := s.capacity
		for int(q.head) < len(q.msgs) {
			m := &q.msgs[q.head]
			if !unlimited {
				if budget <= 0 {
					break
				}
				if remaining := m.Words - int(q.sent); remaining > budget {
					q.sent += int32(budget)
					budget = 0
					break
				} else {
					budget -= remaining
				}
			}
			w := int64(m.Words)
			inb = append(inb, *m)
			// The inbox owns the arena chunk now; scalar words may go
			// stale in the slot (Ext is the only pointer in a Message).
			m.Payload.Ext = nil
			q.head++
			q.sent = 0
			if w > inbMax {
				inbMax = w
			}
			msgs++
			words += w
		}
		q.compact()
		if !q.empty() {
			region[live] = p
			live++
		}
	}
	s.inbox[v] = inb
	s.inboxMax[v] = int32(inbMax)
	s.dirtyCnt[v] = int32(live)
	return msgs, words
}

// drainDstFaulty is drainDst with the fault plan consulted per delivery. It
// preserves the clean path's structure exactly — same ascending-sender edge
// order, same bandwidth pacing, same inbox/dirty bookkeeping — and adds, in
// order: crash holds/discards for the destination, partition cuts per edge,
// a per-message delay draw, a per-transmission drop roll with a bounded
// retransmission budget, and a per-delivery duplication roll. All decisions
// are stateless hashes keyed on the edge id and the queue's lifetime
// sequence number, so they are identical at every worker count. Tallies and
// sender-meter spikes accumulate into this shard's slots and are merged
// serially after the delivery barrier.
func (s *Simulator) drainDstFaulty(v, sh int) (int64, int64) {
	f := s.faults
	clock := s.faultClock
	ctr := &s.shardFault[sh]
	ar := &s.shardArena[sh]
	base := int(s.inStart[v])
	region := s.dirtyIn[base : base+int(s.dirtyCnt[v])]
	slices.Sort(region)
	if down, forever := f.Crashed(v, clock); down {
		if !forever {
			return 0, 0 // held: the backlog carries until v recovers
		}
		for _, p := range region {
			ctr.Discarded += s.discardQueue(s.inEdges[p])
		}
		s.dirtyCnt[v] = 0
		return 0, 0
	}
	var msgs, words int64
	unlimited := s.capacity <= 0
	live := 0
	inb := s.inbox[v]
	inbMax := int64(s.inboxMax[v])
	for _, p := range region {
		e := s.inEdges[p]
		q := &s.queues[e]
		fq := &s.faultQ[e]
		if cut, forever := f.CutPair(q.msgs[q.head].From, v, clock); cut {
			if forever {
				ctr.Discarded += s.discardQueue(e)
				continue
			}
			region[live] = p
			live++
			continue
		}
		budget := s.capacity
		for int(q.head) < len(q.msgs) {
			m := &q.msgs[q.head]
			if !fq.rolled {
				fq.rolled = true
				d := f.DelayRoll(e, fq.seq)
				fq.hold = int32(d)
				ctr.DelayRounds += int64(d)
			}
			if fq.hold > 0 {
				fq.hold-- // head-of-line blocked: one delay round elapses
				break
			}
			if !unlimited {
				if budget <= 0 {
					break
				}
				if remaining := m.Words - int(q.sent); remaining > budget {
					q.sent += int32(budget)
					budget = 0
					break
				} else {
					budget -= remaining
				}
			}
			// The message would complete this round: roll its drop.
			if f.DropRoll(e, fq.seq, int(fq.attempt)) {
				ctr.Dropped++
				ctr.RetryWords += int64(m.Words)
				q.sent = 0
				if int(fq.attempt) >= f.Budget() {
					ctr.Lost++
					if m.Payload.Ext != nil {
						ar.put(m.Payload.Ext)
						m.Payload.Ext = nil
					}
					q.head++
					fq.attempt, fq.hold, fq.rolled = 0, 0, false
					fq.seq++
					continue
				}
				// The sender regenerates and re-queues the message: spike
				// its meter (deferred — the sender belongs to another
				// shard) and let the retransmission occupy the following
				// rounds.
				ctr.Retried++
				s.shardSpike[sh] = append(s.shardSpike[sh],
					faults.Spike{V: int32(m.From), Words: int32(m.Words)})
				fq.attempt++
				break
			}
			w := int64(m.Words)
			inb = append(inb, *m)
			if f.DupRoll(e, fq.seq) {
				// Deliver a second copy. Its Ext must be a fresh arena
				// chunk: inbox recycling frees each Ext exactly once.
				dup := *m
				dup.Payload.Ext = ar.clone(m.Payload.Ext)
				inb = append(inb, dup)
				ctr.Duplicated++
				msgs++
				words += w
			}
			m.Payload.Ext = nil
			q.head++
			q.sent = 0
			fq.attempt, fq.hold, fq.rolled = 0, 0, false
			fq.seq++
			if w > inbMax {
				inbMax = w
			}
			msgs++
			words += w
		}
		q.compact()
		if !q.empty() {
			region[live] = p
			live++
		}
	}
	s.inbox[v] = inb
	s.inboxMax[v] = int32(inbMax)
	s.dirtyCnt[v] = int32(live)
	return msgs, words
}

// discardQueue drops every undelivered message of edge e's queue
// (crashed-forever destination or permanent partition), returning the count.
// Arena chunks are reclaimed; the put side of the arena is mutex-guarded, so
// this is safe from inside a delivery shard.
func (s *Simulator) discardQueue(e int32) int64 {
	q := &s.queues[e]
	fq := &s.faultQ[e]
	dropped := int64(len(q.msgs) - int(q.head))
	s.recycleExt(q.msgs[q.head:])
	clear(q.msgs)
	q.msgs = q.msgs[:0]
	q.head, q.sent = 0, 0
	fq.seq += uint64(dropped)
	fq.attempt, fq.hold, fq.rolled = 0, 0, false
	return dropped
}

// drainAll resets every backlogged queue and dirty list - the end-of-Run
// "drop undelivered state" path when maxRounds cut the simulation short.
func (s *Simulator) drainAll() {
	for sh := range s.shardCur {
		for _, v32 := range s.shardCur[sh] {
			v := int(v32)
			base := int(s.inStart[v])
			for i := 0; i < int(s.dirtyCnt[v]); i++ {
				e := s.inEdges[s.dirtyIn[base+i]]
				q := &s.queues[e]
				s.recycleExt(q.msgs[q.head:]) // delivered prefix holds no chunks
				clear(q.msgs)
				q.msgs = q.msgs[:0]
				q.head, q.sent = 0, 0
				if s.faultQ != nil {
					fq := &s.faultQ[e]
					fq.attempt, fq.hold, fq.rolled = 0, 0, false
				}
			}
			s.dirtyCnt[v] = 0
		}
		s.shardCur[sh] = s.shardCur[sh][:0]
	}
}

// queueBacklog returns the words still queued on bandwidth-limited edges.
func (s *Simulator) queueBacklog() int64 {
	var backlog int64
	for sh := range s.shardCur {
		for _, v32 := range s.shardCur[sh] {
			v := int(v32)
			base := int(s.inStart[v])
			for i := 0; i < int(s.dirtyCnt[v]); i++ {
				q := &s.queues[s.inEdges[s.dirtyIn[base+i]]]
				for j := int(q.head); j < len(q.msgs); j++ {
					w := int64(q.msgs[j].Words)
					if j == int(q.head) {
						w -= int64(q.sent)
					}
					backlog += w
				}
			}
		}
	}
	return backlog
}

// Send queues a message of the given word count to neighbor `to`. Delivery
// happens when the edge's bandwidth allows; a backlogged edge delays later
// messages but charges no memory (see edgeQueue). The payload's Ext slice is
// borrowed: Send copies it into an arena chunk, so the caller's buffer (and a
// received payload being relayed) may be reused immediately. Sending to a
// non-neighbor panics: it is a programming error that would break the model.
func (c *Ctx) Send(to int, p Payload, words int) {
	e := c.sim.edgeID(c.v, to)
	if e < 0 {
		panic(fmt.Sprintf("congest: vertex %d sent to non-neighbor %d", c.v, to))
	}
	if words < 1 {
		words = 1
	}
	ar := c.arena
	if ar == nil {
		ar = &c.sim.arena
	}
	p.Ext = ar.clone(p.Ext)
	// Enqueue straight onto the edge queue: the sender is this queue's only
	// writer and delivery only runs between rounds, so the append is safe
	// even on the parallel step path - and the message is copied once, not
	// staged through a per-context out buffer. Cross-vertex bookkeeping
	// (dirty lists, shard worklists) is deferred to the serial enqueue
	// walk, which only needs the empty->backed transitions.
	q := &c.sim.queues[e]
	if q.empty() {
		c.outEdge = append(c.outEdge, e)
	}
	q.msgs = append(q.msgs, Message{From: c.v, Payload: p, Words: words})
}

// fastForward advances every backlogged queue by k-1 rounds of bandwidth,
// where round k is the earliest future round in which any head message
// completes (k >= 1; k == 1 means the next round already delivers and there
// is nothing to skip). The jump is clamped to limit so Run still respects
// maxRounds. Only called when no vertex is active: an idle round does
// nothing but add one capacity of budget to each backlogged edge, so
// advancing sent by jump*capacity reproduces the skipped rounds exactly.
func (s *Simulator) fastForward(limit int) int {
	if limit <= 0 {
		return 0
	}
	minRounds := 0
	for sh := range s.shardCur {
		for _, v32 := range s.shardCur[sh] {
			v := int(v32)
			base := int(s.inStart[v])
			for i := 0; i < int(s.dirtyCnt[v]); i++ {
				q := &s.queues[s.inEdges[s.dirtyIn[base+i]]]
				r := (q.msgs[q.head].Words - int(q.sent) + s.capacity - 1) / s.capacity
				if minRounds == 0 || r < minRounds {
					minRounds = r
				}
			}
		}
	}
	jump := minRounds - 1
	if jump > limit {
		jump = limit
	}
	if jump <= 0 {
		return 0
	}
	adv := jump * s.capacity
	for sh := range s.shardCur {
		for _, v32 := range s.shardCur[sh] {
			v := int(v32)
			base := int(s.inStart[v])
			for i := 0; i < int(s.dirtyCnt[v]); i++ {
				s.queues[s.inEdges[s.dirtyIn[base+i]]].sent += int32(adv)
			}
		}
	}
	return jump
}

// timer is one pending WakeAt request: vertex v steps in round.
type timer struct {
	round int
	v     int32
}

func (a timer) less(b timer) bool {
	return a.round < b.round || (a.round == b.round && a.v < b.v)
}

// pushTimer adds a timer to the heap. A vertex may hold several; the
// duplicates of one round collapse when they fall due (popDue).
func (s *Simulator) pushTimer(round int, v int32) {
	h := append(s.timers, timer{round, v})
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.timers = h
}

// popDue moves the vertices of the timers due in round onto act, skipping
// any already stamped with the current epoch. The heap pops in (round,
// vertex) order, so the due vertices arrive ascending.
func (s *Simulator) popDue(act []int32, round int) []int32 {
	h := s.timers
	for len(h) > 0 && h[0].round == round {
		v := h[0].v
		if s.nextStamp[v] != s.epoch {
			s.nextStamp[v] = s.epoch
			act = append(act, v)
		}
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1].less(h[c]) {
				c++
			}
			if !h[c].less(h[i]) {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	s.timers = h
	return act
}
