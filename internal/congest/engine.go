package congest

// The round engine. Design goals, in order: bit-identical behaviour with the
// reference semantics (per-edge FIFO, per-round edge bandwidth, inboxes
// sorted by (sender, send order), deterministic active sets), zero
// steady-state allocation, and parallel delivery that cannot race.
//
// The frozen topology is compiled once into a CSR (compressed sparse
// row) index over the *directed* edges of the communication graph:
//
//   outStart/outTo  per-sender edge lists, destinations ascending, parallel
//                   edges deduplicated (they share one queue and therefore
//                   one bandwidth budget, exactly like the map-keyed queues
//                   they replace);
//   inEdges         per-destination lists of incoming directed edge ids,
//                   senders ascending; the topology is undirected, so v's
//                   list shares v's outStart range, and slot p holds the
//                   edge from outTo[p];
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
	"math"
	"math/bits"
	"slices"
	"sync"

	"lowmemroute/internal/faults"
	"lowmemroute/internal/trace"
)

// parallelMin is the fork/join crossover: the minimum amount of per-round
// work (active vertices for the step phase, dirty destinations for the
// delivery phase) before the engine hands a round to its worker pool.
// Smaller rounds run inline at any worker count: waking and joining an idle
// P costs more than a few hundred steps or drains (DESIGN.md §15).
const parallelMin = 1024

// edgeQueue models the pacing of a bandwidth-limited directed edge as a
// FIFO. Backlog delays delivery (rounds) but charges no memory: a real
// CONGEST processor regenerates outgoing messages from its stored state
// (already charged) rather than holding per-edge copies (DESIGN.md §2).
//
// The FIFO is a power-of-two ring of pointer-free qEntry slots, nil until
// the edge first carries traffic, carved from the sending shard's ring slab
// (ringSlab) and doubled only when a Send finds it short. A message takes
// one head slot plus, when it has a body, ceil(len/4) continuation slots
// right after it, four body words each. The ring has one writer, the
// sender's step, and one reader, the destination's delivery, which never run
// at the same time. The queue array is the engine's largest O(m) structure,
// so a queue is 40 bytes: cursors are int32 (an edge never queues 2^31
// slots).
type edgeQueue struct {
	buf  []qEntry
	head int32 // ring index of the front (oldest live) message's head slot
	n    int32 // live slots, continuation slots included
	// sent is the number of words of the front message already transmitted
	// in previous rounds (large messages take several rounds to cross).
	sent int32
}

// qEntry is one ring slot in 40 bytes with no pointer, so the GC never scans
// a ring. A head slot holds a message's inline payload words, its word count,
// its kind and its body length; the sender is implied by the edge, and
// Ctx.Send bounds words to an int32 and the body to a uint16, which fits the
// slot's padding. A continuation slot holds four body words in w and nothing
// else.
type qEntry struct {
	w     [4]uint64
	words int32
	kind  PayloadKind
	body  uint16
}

// slots is the number of ring slots the message headed by e takes.
func (e *qEntry) slots() int { return 1 + bodySlots(int(e.body)) }

// bodySlots is the number of continuation slots a body of n words takes.
func bodySlots(n int) int { return (n + 3) / 4 }

// Ring sizes: a ring starts at one slot, so the rings of edges that never
// back up sit densely in their chunk, and its first growth jumps to ringMin
// slots, skipping the doublings a backlog would soon outgrow. Rings up to
// ringSlabMax slots are carved from chunks instead of being allocated one by
// one. A chunk has ringMin slots per directed edge of the simulator, at most
// ringChunk: room for every edge's first growth, so a small graph's rings do
// not cost a 160 KB chunk, while a graph of 512 or more directed edges gets
// ringChunk-slot chunks.
const (
	ringMin     = 8
	ringSlabMax = 256
	ringChunk   = 4096
)

// ringSlab hands out rings from large chunks, so an edge's ring costs no
// allocation of its own. A ring outgrown by its edge stays in its chunk,
// which is freed with the last ring carved from it; doubling bounds that
// waste by the edge's live ring. A slab belongs to one execution shard
// (Simulator.slabs), so it is never shared between goroutines.
type ringSlab struct {
	free  []qEntry
	chunk int // slots in a new chunk (see ringChunk)
}

// carve cuts an n-slot ring from the current chunk, starting a new chunk of
// chunk slots (n if larger) when it runs short.
func (sl *ringSlab) carve(n int) []qEntry {
	if n > ringSlabMax {
		return make([]qEntry, n)
	}
	if len(sl.free) < n {
		sl.free = make([]qEntry, max(sl.chunk, n))
	}
	b := sl.free[:n:n]
	sl.free = sl.free[n:]
	return b
}

// edgeFaultState is the per-edge-queue fault bookkeeping, kept out of
// edgeQueue and allocated as a parallel slice only when a fault plan is
// installed, so the clean simulator's topology footprint is untouched. seq
// is the lifetime delivery sequence number of the head message — the
// deterministic coordinate of its fault rolls; it counts messages, not
// slots. attempt counts this message's failed transmissions, hold its
// remaining injected delay rounds, and rolled whether the delay has been
// drawn yet.
type edgeFaultState struct {
	seq     uint64
	attempt int32
	hold    int32
	rolled  bool
}

// restart clears the fault state of a queue whose head left it, skip
// messages later in the queue's lifetime sequence: the next head starts
// with no failed transmission and an undrawn delay.
func (fq *edgeFaultState) restart(skip uint64) {
	fq.seq += skip
	fq.attempt, fq.hold, fq.rolled = 0, 0, false
}

func (q *edgeQueue) empty() bool { return q.n == 0 }

// front is the oldest live message's head slot; the queue must not be
// empty.
func (q *edgeQueue) front() *qEntry { return &q.buf[q.head] }

// slot is the ring index of the i-th live slot, 0 being the front.
func (q *edgeQueue) slot(i int) int { return (int(q.head) + i) & (len(q.buf) - 1) }

// at is the i-th live slot, 0 being the front.
func (q *edgeQueue) at(i int) *qEntry { return &q.buf[q.slot(i)] }

// grow replaces a ring too short for need live slots by a larger one (see
// ringMin), unwrapping it to the new ring's start.
func (q *edgeQueue) grow(slab *ringSlab, need int) {
	n := 1
	if len(q.buf) > 0 {
		n = max(ringMin, 2*len(q.buf))
	}
	for n < need {
		n *= 2
	}
	buf := slab.carve(n)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// pop retires the front message, its continuation slots included, and
// restarts the transmission count. A queue that empties starts over at slot
// 0, so an edge that never backs up keeps reusing one slot (one cache line)
// instead of cycling through its whole ring.
func (q *edgeQueue) pop() {
	k := int32(q.front().slots())
	q.head = (q.head + k) & int32(len(q.buf)-1)
	q.n -= k
	q.sent = 0
	if q.n == 0 {
		q.head = 0
	}
}

// messages counts the queue's live messages by walking their head slots.
func (q *edgeQueue) messages() int64 {
	var k int64
	for i := 0; i < int(q.n); i += q.at(i).slots() {
		k++
	}
	return k
}

// reset empties the queue and keeps its ring.
func (q *edgeQueue) reset() { q.head, q.n, q.sent = 0, 0, 0 }

// inboxMin is the capacity an inbox starts at (a grid vertex's in-degree),
// so most inboxes reach their size in one allocation instead of three.
const inboxMin = 4

// ensureTopology compiles the CSR edge index and sizes every recycled
// buffer. It runs once, on the first Run; the topology is frozen, so later
// Runs see a single nil check.
func (s *Simulator) ensureTopology() {
	if s.outStart != nil {
		return
	}
	n, m := s.topo.N(), s.topo.M()

	// Outgoing CSR: destinations sorted ascending per sender, parallel
	// edges deduplicated so they share one queue (and one budget).
	s.outStart = make([]int32, n+1)
	outTo := make([]int32, 0, 2*m)
	for u := 0; u < n; u++ {
		start := len(outTo)
		ts, _ := s.topo.NeighborRange(u)
		outTo = append(outTo, ts...)
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
	// pass in id order lands them presorted). The topology is undirected:
	// v's senders are exactly its destinations, so v's list fills v's
	// outStart range and slot p holds the edge from outTo[p].
	s.inEdges = make([]int32, ne)
	s.inPos = make([]int32, ne)
	cursor := make([]int32, n)
	copy(cursor, s.outStart[:n])
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
	s.actBits = make([]uint64, (n+63)/64)
	s.armed = make([]int, n)
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
	s.shardBody = make([][]uint64, shards)
	s.slabs = make([]ringSlab, shards)
	chunk := min(ringChunk, ringMin*max(ne, 1)) // see ringChunk
	for i := range s.slabs {
		s.slabs[i].chunk = chunk
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
	defer s.stopPool()
	s.ensureFaults()
	s.spinTimers = s.faults != nil && s.faults.HasCrashes()
	// Idle rounds are skipped unless a fault plan makes empty rounds
	// meaningful (delays tick, crash windows open and close). A tracer sees
	// each skipped stretch as one idle sample.
	skipIdle := !s.ffOff && s.faults == nil

	// A Run starts a new round frame: the previous Run's armed rounds name
	// timers that were dropped when it returned.
	clear(s.armed)
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

	pending := 0 // dirty destinations == destinations with queued traffic
	for _, l := range s.shardCur {
		pending += len(l)
	}

	executed := 0
	baseRounds := s.rounds
	s.faultBase = baseRounds
	for round := 0; round < maxRounds && (len(s.actList) > 0 || pending > 0 || len(s.timers) > 0); round++ {
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
			if jump > 0 && s.tracer != nil {
				s.emitSample(baseRounds+int64(executed), trace.KindIdle, int64(jump),
					0, 0, 0, faults.Counters{})
			}
			if round >= maxRounds {
				break
			}
			s.epoch++
			s.actList = s.popDue(s.actList[:0], round)
		}

		msgsBefore, wordsBefore := s.messages, s.words
		ctrBefore := s.faultCtr
		s.runRound(round, step)
		executed++

		// Ran vertices have consumed their inboxes; recycle the buffers -
		// no delivered message outlives the round.
		for _, v := range s.actList {
			s.inbox[v] = s.inbox[v][:0]
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
				s.dirtyIn[int(s.outStart[to])+int(s.dirtyCnt[to])] = s.inPos[e]
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
		if s.workers > 1 && pending >= parallelMin {
			s.parDeliveries++
			s.fork(len(s.shardCur), s.deliverTask)
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

		// Next round's active list: woken + received, sorted ascending.
		s.nextList = s.sortActive(next)
		s.actList, s.nextList = s.nextList, s.actList
	}
	s.rounds += int64(executed)

	// Drop undelivered state and pending timers if we hit maxRounds.
	s.timers = s.timers[:0]
	for _, v := range s.actList {
		s.inbox[v] = s.inbox[v][:0]
		s.inboxMax[v] = 0
	}
	if pending > 0 {
		s.drainAll()
	}
	return executed
}

// runRound executes step for every active vertex, reusing the simulator's
// context pool, serially or on the worker pool.
func (s *Simulator) runRound(round int, step StepFunc) {
	act := s.actList
	if len(act) > len(s.ctxs) {
		s.ctxs = append(s.ctxs, make([]Ctx, len(act)-len(s.ctxs))...)
	}
	if s.workers <= 1 || len(act) < parallelMin {
		for i := range act {
			s.stepVertex(i, round, step, &s.slabs[0])
		}
		return
	}
	s.parSteps++
	s.stepRound, s.stepFn = round, step
	s.stepChunk = (len(act) + s.workers - 1) / s.workers
	s.fork(s.workers, s.stepTask)
	s.stepFn = nil
}

// stepShard steps the w-th chunk of the active list (runRound's fork task,
// empty past the list's end) on execution shard w's ring slab.
func (s *Simulator) stepShard(w int) {
	lo := w * s.stepChunk
	hi := min(lo+s.stepChunk, len(s.actList))
	for i := lo; i < hi; i++ {
		s.stepVertex(i, s.stepRound, s.stepFn, &s.slabs[w])
	}
}

// forkPool is the worker pool of one Run: Shards()-1 goroutines serving the
// task indices the Run's forks hand them.
type forkPool struct {
	work chan int
	task func(int)
	wg   sync.WaitGroup
}

func (p *forkPool) serve() {
	for i := range p.work {
		p.task(i)
		p.wg.Done()
	}
}

// fork runs task(0), ..., task(k-1) in parallel and returns when all are
// done: index 0 on the calling goroutine, the rest on the Run's pool, which
// the Run's first fork starts and the Run's return stops (stopPool). The
// tasks are method values bound once per simulator and the pool is fed
// plain ints, so a fork allocates nothing (DESIGN.md §15).
func (s *Simulator) fork(k int, task func(int)) {
	p := s.pool
	if p == nil {
		p = &forkPool{work: make(chan int, s.workers)}
		for range s.workers - 1 {
			go p.serve()
		}
		s.pool = p
	}
	p.task = task
	p.wg.Add(k - 1)
	for i := 1; i < k; i++ {
		p.work <- i
	}
	task(0)
	p.wg.Wait()
}

// stopPool ends the Run's pool, if a fork started one. Run defers it, so a
// handler that panics on the calling goroutine leaks no worker.
func (s *Simulator) stopPool() {
	if s.pool != nil {
		close(s.pool.work)
		s.pool = nil
	}
}

// stepVertex runs one vertex's program for one round in its recycled
// context slot. slab is the executing shard's ring slab.
func (s *Simulator) stepVertex(i, round int, step StepFunc, slab *ringSlab) {
	v := int(s.actList[i])
	c := &s.ctxs[i]
	c.sim, c.v, c.round = s, v, round
	c.slab = slab
	c.in = s.inbox[v]
	c.outEdge = c.outEdge[:0]
	c.wakeAt = 0
	// Crash-stop: a down vertex executes nothing and sends nothing. The
	// context fields above are still initialised because the serial enqueue
	// walk reads wakeAt/outEdge for every active slot. Delivery to a down
	// vertex is held upstream (drainDst's gate), so its inbox is empty
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
	s.shardBody[sh] = s.shardBody[sh][:0]
	recv := s.shardRecv[sh][:0]
	nxt := s.shardNxt[sh][:0]
	for _, v32 := range s.shardCur[sh] {
		v := int(v32)
		dm, dw := s.drainDst(v, sh)
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
// edges, in ascending-sender order, within each edge's bandwidth, on
// delivery shard sh. Surviving backlog is compacted to the front of v's dirty
// region. Returns delivered message and word counts.
//
// A fault plan hooks in at two levels. Per destination, gate holds or
// discards whole edges (a crashed v, partition cuts). Per message, the loop
// rolls the head's injected delay before pacing, its drop once it would
// complete, and its duplication once delivered (delayed, dropped,
// delivered). Without a plan no hook runs.
func (s *Simulator) drainDst(v, sh int) (int64, int64) {
	var msgs, words int64
	base := int(s.outStart[v])
	region := s.dirtyIn[base : base+int(s.dirtyCnt[v])]
	faulty := s.faults != nil
	held := 0
	if faulty {
		var kept int
		held, kept = s.gate(v, sh, region)
		region = region[:kept]
	}
	// Carried entries (compacted last round) and this round's arrivals are
	// each already ascending, so this is a near-linear merge for pdqsort.
	slices.Sort(region[held:])
	unlimited := s.capacity <= 0
	live := held
	inb := s.inbox[v]
	inbMax := int64(s.inboxMax[v])
	for _, p := range region[held:] {
		e := s.inEdges[p]
		q := &s.queues[e]
		budget := s.capacity
		for !q.empty() {
			m := q.front()
			if faulty && s.delayed(e, sh) {
				break
			}
			if !unlimited {
				if budget <= 0 {
					break
				}
				if remaining := int(m.words - q.sent); remaining > budget {
					q.sent += int32(budget)
					budget = 0
					break
				} else {
					budget -= remaining
				}
			}
			if faulty {
				if drop, lost := s.dropped(e, p, sh); lost {
					continue
				} else if drop {
					break
				}
			}
			w := int64(m.words)
			// Append the message's inbox form, written in place and not by a
			// helper, which would not inline: a clean message without a body
			// makes no call.
			if len(inb) == cap(inb) {
				inb = slices.Grow(inb, max(1, inboxMin-len(inb)))
			}
			inb = inb[:len(inb)+1]
			im := &inb[len(inb)-1]
			im.From, im.Words = int(s.outTo[p]), int(m.words)
			ip := &im.Payload
			ip.Kind = m.kind
			ip.W0, ip.W1, ip.W2, ip.W3 = m.w[0], m.w[1], m.w[2], m.w[3]
			im.bodyAt, im.bodyLen = 0, 0
			if m.body > 0 {
				im.bodyAt, im.bodyLen = s.keepBody(q, sh), int32(m.body)
			}
			if faulty {
				var dup bool
				if inb, dup = s.delivered(e, sh, inb); dup {
					msgs++
					words += w
				}
			}
			q.pop()
			if w > inbMax {
				inbMax = w
			}
			msgs++
			words += w
		}
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

// The fault hooks of drainDst, called only under a plan. Every decision is a
// stateless hash keyed on the edge id and the queue's lifetime sequence
// number (edgeFaultState.seq), so it is the same at every worker count.
// Tallies and sender-meter spikes go to shard sh's slots, merged serially
// after the delivery barrier.

// gate applies the plan's whole-edge decisions to destination v's dirty
// region before any message moves: while v is down every edge is held (its
// backlog carries until v recovers) or, if v never recovers, discarded; an
// edge a partition cuts is held for the round or, if the cut never heals,
// discarded. Held edges move to the front of the region and discarded ones
// leave it; gate returns how many are held and how many are kept, held
// included. drainDst re-sorts the region on every call, so the order gate
// leaves is unobservable.
func (s *Simulator) gate(v, sh int, region []int32) (held, kept int) {
	f, clock, ctr := s.faults, s.faultClock, &s.shardFault[sh]
	if down, forever := f.Crashed(v, clock); down {
		if !forever {
			return len(region), len(region)
		}
		for _, p := range region {
			ctr.Discarded += s.discardQueue(s.inEdges[p])
		}
		return 0, 0
	}
	for _, p := range region {
		switch cut, forever := f.CutPair(int(s.outTo[p]), v, clock); {
		case !cut:
			region[kept] = p
			kept++
		case forever:
			ctr.Discarded += s.discardQueue(s.inEdges[p])
		default:
			region[kept] = region[held]
			region[held] = p
			held++
			kept++
		}
	}
	return held, kept
}

// delayed draws the injected delay of edge e's head message the first time
// the message reaches the front, and reports whether the edge is still
// head-of-line blocked, spending one of the delay rounds if so.
func (s *Simulator) delayed(e int32, sh int) bool {
	fq := &s.faultQ[e]
	if !fq.rolled {
		fq.rolled = true
		d := s.faults.DelayRoll(e, fq.seq)
		fq.hold = int32(d)
		s.shardFault[sh].DelayRounds += int64(d)
	}
	if fq.hold > 0 {
		fq.hold-- // one delay round elapses
		return true
	}
	return false
}

// dropped rolls the drop of edge e's head message, which would complete
// this round (p is the edge's slot in the receiver's range). A dropped
// message whose retransmission budget is spent is lost: it leaves the queue
// and the edge's remaining budget moves on to the next one. Otherwise the
// sender regenerates and re-queues it: its meter is spiked (deferred, as the
// sender belongs to another shard) and the retransmission occupies the
// following rounds.
func (s *Simulator) dropped(e, p int32, sh int) (drop, lost bool) {
	f, fq := s.faults, &s.faultQ[e]
	if !f.DropRoll(e, fq.seq, int(fq.attempt)) {
		return false, false
	}
	q := &s.queues[e]
	ctr := &s.shardFault[sh]
	ctr.Dropped++
	ctr.RetryWords += int64(q.front().words)
	if int(fq.attempt) >= f.Budget() {
		ctr.Lost++
		q.pop()
		fq.restart(1)
		return true, true
	}
	ctr.Retried++
	s.shardSpike[sh] = append(s.shardSpike[sh], faults.Spike{V: s.outTo[p], Words: q.front().words})
	q.sent = 0
	fq.attempt++
	return true, false
}

// delivered rolls the duplication of edge e's head message, just appended
// to inb, appending a second copy if it fires, and retires the message's
// fault state. It reports whether it duplicated. The copy shares its
// original's body: both read the same words of the body buffer.
func (s *Simulator) delivered(e int32, sh int, inb []Message) ([]Message, bool) {
	fq := &s.faultQ[e]
	dup := s.faults.DupRoll(e, fq.seq)
	if dup {
		inb = append(inb, inb[len(inb)-1])
		s.shardFault[sh].Duplicated++
	}
	fq.restart(1)
	return inb, dup
}

// discardQueue drops every undelivered message of edge e's queue
// (crashed-forever destination or permanent partition), returning the count.
func (s *Simulator) discardQueue(e int32) int64 {
	q := &s.queues[e]
	dropped := q.messages()
	q.reset()
	s.faultQ[e].restart(uint64(dropped))
	return dropped
}

// eachDirty calls fn on every backlogged edge queue, destination by
// destination in worklist order.
func (s *Simulator) eachDirty(fn func(e int32, q *edgeQueue)) {
	for sh := range s.shardCur {
		for _, v := range s.shardCur[sh] {
			base := int(s.outStart[v])
			for _, p := range s.dirtyIn[base : base+int(s.dirtyCnt[v])] {
				e := s.inEdges[p]
				fn(e, &s.queues[e])
			}
		}
	}
}

// drainAll resets every backlogged queue and dirty list - the end-of-Run
// "drop undelivered state" path when maxRounds cut the simulation short.
func (s *Simulator) drainAll() {
	s.eachDirty(func(e int32, q *edgeQueue) {
		q.reset()
		if s.faultQ != nil {
			s.faultQ[e].restart(0)
		}
	})
	for sh := range s.shardCur {
		for _, v := range s.shardCur[sh] {
			s.dirtyCnt[v] = 0
		}
		s.shardCur[sh] = s.shardCur[sh][:0]
	}
}

// queueBacklog returns the words still queued on bandwidth-limited edges.
func (s *Simulator) queueBacklog() (backlog int64) {
	s.eachDirty(func(_ int32, q *edgeQueue) {
		backlog -= int64(q.sent)
		for i := 0; i < int(q.n); i += q.at(i).slots() {
			backlog += int64(q.at(i).words)
		}
	})
	return backlog
}

// Send queues a message of the given word count to neighbor `to`, with an
// optional body of further words. Delivery happens when the edge's bandwidth
// allows; a backlogged edge delays later messages but charges no memory (see
// edgeQueue). Words alone is the message's charged size: the body rides in
// the ring after the message's head slot and is paced, rolled and counted
// with it. Send copies the body, so the caller's buffer (and a body copied
// out of a received message to relay it) may be reused at once. Sending to a
// non-neighbor, a message of 2^31 words or more, or a body of 2^16 words or
// more panics: each is a programming error that would break the model.
func (c *Ctx) Send(to int, p Payload, words int, body ...uint64) {
	e := c.sim.edgeID(c.v, to)
	if e < 0 {
		panic(fmt.Sprintf("congest: vertex %d sent to non-neighbor %d", c.v, to))
	}
	if words < 1 {
		words = 1
	} else if words > math.MaxInt32 {
		panic(fmt.Sprintf("congest: vertex %d sent a %d-word message to %d", c.v, words, to))
	}
	if len(body) > math.MaxUint16 {
		panic(fmt.Sprintf("congest: vertex %d sent a %d-word body to %d", c.v, len(body), to))
	}
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
	need := int(q.n) + 1 + bodySlots(len(body))
	if need > len(q.buf) {
		q.grow(c.slab, need)
	}
	en := &q.buf[q.slot(int(q.n))]
	en.w[0], en.w[1], en.w[2], en.w[3] = p.W0, p.W1, p.W2, p.W3
	en.words, en.kind, en.body = int32(words), p.Kind, uint16(len(body))
	for j := 0; j < len(body); j += 4 {
		copy(q.at(int(q.n) + 1 + j/4).w[:], body[j:])
	}
	q.n = int32(need)
}

// keepBody copies the body of edge queue q's front message from its
// continuation slots into delivery shard sh's body buffer and returns its
// offset there.
func (s *Simulator) keepBody(q *edgeQueue, sh int) int32 {
	buf := s.shardBody[sh]
	at := len(buf)
	n := int(q.front().body)
	for j := 0; j < n; j += 4 {
		buf = append(buf, q.at(1 + j/4).w[:min(4, n-j)]...)
	}
	s.shardBody[sh] = buf
	return int32(at)
}

// bitmapSortMin is the length from which sortActive sorts through the
// bitmap; shorter lists are cheaper to sort outright.
const bitmapSortMin = 64

// sortActive sorts a duplicate-free vertex list ascending, in place. A long
// list is sorted by setting its vertices in actBits and reading them back in
// one pass over the words between its smallest and largest vertex, which
// leaves actBits clear again.
func (s *Simulator) sortActive(list []int32) []int32 {
	if len(list) < bitmapSortMin {
		slices.Sort(list)
		return list
	}
	lo, hi := list[0], list[0]
	for _, v := range list {
		s.actBits[v>>6] |= 1 << (v & 63)
		lo, hi = min(lo, v), max(hi, v)
	}
	out := list[:0]
	for w := lo >> 6; w <= hi>>6; w++ {
		for b := s.actBits[w]; b != 0; b &= b - 1 {
			out = append(out, w<<6|int32(bits.TrailingZeros64(b)))
		}
		s.actBits[w] = 0
	}
	return out
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
	s.eachDirty(func(_ int32, q *edgeQueue) {
		r := (int(q.front().words-q.sent) + s.capacity - 1) / s.capacity
		if minRounds == 0 || r < minRounds {
			minRounds = r
		}
	})
	jump := min(minRounds-1, limit)
	if jump <= 0 {
		return 0
	}
	adv := int32(jump * s.capacity)
	s.eachDirty(func(_ int32, q *edgeQueue) { q.sent += adv })
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

// pushTimer adds a timer to the heap unless v's last pushed timer is for
// the same round: rounds only grow within a Run, so that timer is still
// pending. A vertex may hold timers for several rounds; a duplicate that
// slips past the one-slot check (a re-arm of an older round) collapses when
// it falls due (popDue).
func (s *Simulator) pushTimer(round int, v int32) {
	if s.armed[v] == round {
		return
	}
	s.armed[v] = round
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
