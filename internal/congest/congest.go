// Package congest implements a deterministic round-based simulator for the
// CONGEST RAM model of Elkin-Neiman (PODC 2018): one processor per vertex of
// a weighted graph, synchronous rounds, per-edge bandwidth of O(1) words per
// round (a word holds a vertex id, an edge weight, or a distance), and
// per-vertex memory meters that record the peak number of words each
// processor ever holds.
//
// Algorithms are written as step functions executed once per active vertex
// per round; within a round all vertices observe the same pre-round state
// (message delivery is barrier-synchronised), and rounds are executed by a
// goroutine worker pool. Bandwidth is enforced: traffic exceeding an edge's
// per-round word budget is queued and the queue delays delivery - this is
// exactly the congestion that the paper's random start-time scheduling is
// designed to avoid. Queued words charge no memory: a CONGEST processor
// regenerates outgoing messages from its stored state, which is charged
// already (DESIGN.md §2).
//
// Receiving is link-buffered and free (a vertex may receive one message per
// incident edge per round and process them streaming, as the model allows);
// memory is charged for state an algorithm retains across rounds, which the
// algorithm does explicitly through its Meter.
//
// The package also provides the Lemma 1 broadcast primitive (pipelined
// BFS-tree broadcast of M messages in O(M + D) rounds), whose cost is
// charged analytically - simulating each broadcast hop explicitly would
// multiply simulation cost by n without changing any algorithmic behaviour.
package congest

import (
	"math/rand"
	"runtime"
	"sync"

	"lowmemroute/internal/faults"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/trace"
)

// DefaultEdgeCapacity is the per-round word budget of a directed edge: a
// CONGEST RAM message carries O(1) words; we fix the constant at 4 (enough
// for an id, a distance, a hop budget and a tag), matching the "O(1) edge
// weights and identities" regime of the model.
const DefaultEdgeCapacity = 4

// Message is a point-to-point message delivered along a graph edge. The
// payload is a typed word record (see Payload in payload.go); its Ext tail,
// if any, is engine-owned and valid only for the round it is delivered in.
type Message struct {
	From    int
	Payload Payload
	Words   int
}

// StepFunc is one vertex's program for one round. It may read the inbox via
// ctx.In(), send messages to neighbors via ctx.Send, keep itself scheduled
// via ctx.Wake or sleep until a later round via ctx.WakeAt, and charge its
// memory meter via ctx.Mem().
type StepFunc func(v int, ctx *Ctx)

// Simulator executes CONGEST rounds over a fixed communication graph.
//
// The engine (engine.go) compiles the graph into a CSR index over directed
// edges and owns every per-round structure; see the engine file comment for
// the layout and the determinism argument.
type Simulator struct {
	// topo is the frozen read-only adjacency the engine compiles and
	// handlers iterate (Topo).
	topo graph.Topology

	d        int // hop-diameter bound used for broadcast cost accounting
	capacity int // words per directed edge per round

	rounds   int64
	messages int64
	words    int64

	inbox  [][]Message
	meters []Meter

	// inboxMax[v] is the running maximum message word count delivered into
	// inbox[v] since v last stepped - maintained at delivery time so
	// stepVertex's transient-memory spike needs no O(inbox) rescan. int32:
	// a single message never carries 2^31 words.
	inboxMax []int32

	// arena recycles the Ext chunks of variable-length payloads; see the
	// ownership protocol in payload.go. It serves the serial paths; each
	// execution shard additionally owns a shardArena slot so the parallel
	// step and delivery phases never contend on one free-list mutex. Chunks
	// migrate freely between arenas (every arena is internally locked and
	// chunk contents are copied on clone), so which arena served a clone is
	// unobservable.
	arena      wordArena
	shardArena []wordArena

	// ffOff disables the idle-round fast-forward (see Run); the default is
	// on, and WithIdleFastForward(false) restores literal round-by-round
	// execution for A/B testing.
	ffOff bool

	workers int
	rng     *rand.Rand

	// parSteps and parDeliveries count the rounds whose step and delivery
	// phases ran on the worker pool (ParallelRounds).
	parSteps, parDeliveries int

	// Fork/join state (engine.go, fork): pool is the running Run's worker
	// pool, nil until its first fork; stepTask and deliverTask are the fork
	// tasks, bound once in NewTopo; stepRound, stepFn and stepChunk carry a
	// forked step phase's arguments to stepShard.
	pool        *forkPool
	stepTask    func(int)
	deliverTask func(int)
	stepRound   int
	stepFn      StepFunc
	stepChunk   int

	// tracer, when non-nil, receives one RoundSample per simulated round
	// and per analytically-charged primitive. Disabled tracing costs one
	// nil check per round.
	tracer trace.Sink

	// obs, when non-nil, publishes live throughput counters and level
	// gauges into a metrics registry (WithMetrics); like the tracer it is
	// strictly observational and costs one nil check per round when off.
	obs *obsHooks

	// CSR index over directed edges, compiled once by ensureTopology. The
	// topology is undirected, so v's senders are its destinations: inEdges
	// shares outStart's ranges, and slot p holds the edge from outTo[p].
	outStart []int32 // per sender: offsets into outTo (and inEdges)
	outTo    []int32 // destinations, ascending per sender, deduplicated
	inEdges  []int32 // slot p of v's range: the directed edge outTo[p] -> v
	inPos    []int32 // directed edge id -> its slot in inEdges

	// Per-directed-edge queues plus the dirty-destination bookkeeping:
	// dirtyIn's region [outStart[v], outStart[v]+dirtyCnt[v]) lists the
	// inEdges slots of v's currently backlogged incoming edges.
	queues   []edgeQueue
	dirtyIn  []int32
	dirtyCnt []int32

	// tails[e] is edge e's Ext tail ring, slot-parallel to queues[e].buf
	// once queues[e].tails is set (see edgeQueue). The slice is allocated
	// on the first tail any edge carries (tailsOnce), so a simulator whose
	// messages never carry one pays nothing for it.
	tails     [][][]uint64
	tailsOnce sync.Once

	// Sharded delivery worklists: shard sh owns the contiguous destination
	// range [sh*shardBlock, (sh+1)*shardBlock). Cur is this round's dirty
	// destinations, Nxt collects carried backlog for the next round, Recv
	// the destinations that received; Msgs/Words are per-shard counters.
	shardBlock int
	shardCur   [][]int32
	shardNxt   [][]int32
	shardRecv  [][]int32
	shardMsgs  []int64
	shardWords []int64

	// Epoch-stamped scratch recycled across rounds: nextStamp[v] == epoch
	// marks v as already collected into the next active list. ctxs,
	// actList and nextList are the reusable context pool and active lists
	// (int32 vertex ids — half the footprint of the O(n) worklists).
	epoch     int64
	nextStamp []int64
	actBits   []uint64 // sortActive's bitmap, clear between calls
	ctxs      []Ctx
	actList   []int32
	nextList  []int32

	// timers is the recycled min-heap of pending Ctx.WakeAt requests,
	// ordered by (round, vertex) in the active Run's round frame.
	// armed[v] is the round of v's most recently pushed timer (0 = none),
	// so a vertex that re-arms the same round from several steps holds one
	// heap entry. spinTimers degrades WakeAt to a per-round Wake for the
	// current Run: set under a fault plan with crash windows, where a down
	// vertex must drop its pending wake exactly as a spinning one would.
	timers     []timer
	armed      []int
	spinTimers bool

	// Fault injection (WithFaults). faults stays nil for an empty plan, so
	// the clean hot path pays one nil check per round; when set, delivery
	// runs through drainDstFaulty. Fault decisions inside the sharded
	// delivery phase accumulate into per-shard counters and spike lists
	// (shardFault/shardSpike) and are merged serially after the barrier.
	// faultClock is the absolute round of the deliveries in flight; see
	// DESIGN.md §11 for the clock and determinism contract.
	faultPlan  *faults.Plan
	faults     *faults.Compiled
	faultCtr   faults.Counters
	faultBase  int64
	faultClock int64
	faultQ     []edgeFaultState // parallel to queues; nil without a plan
	shardFault []faults.Counters
	shardSpike [][]faults.Spike

	// delivery is the one Delivery view Broadcast hands every vertex's
	// handler in turn (reused, so a broadcast allocates nothing);
	// bcastLost backs its per-message lost flags under a fault plan.
	delivery  Delivery
	bcastLost []bool
}

// Option configures a Simulator.
type Option func(*Simulator)

// WithWorkers sets the number of parallel execution shards, which is also
// the width of the goroutine pool executing each round. A shard owns a
// contiguous vertex range — those vertices' handler steps, inboxes, dirty
// worklists and payload arena — and cross-shard traffic merges at the
// per-round barrier in canonical (destination, sender, edge-sequence) order,
// so every observable quantity is byte-identical at any shard count (pinned
// by TestRunWorkerCountInvariance and the core trace test).
func WithWorkers(w int) Option {
	return func(s *Simulator) {
		if w > 0 {
			s.workers = w
		}
	}
}

// WithSeed sets the seed of the simulator's deterministic RNG.
func WithSeed(seed int64) Option {
	return func(s *Simulator) { s.rng = rand.New(rand.NewSource(seed)) }
}

// WithDiameter overrides the hop-diameter bound used when charging
// broadcast rounds (defaults to a 2x eccentricity upper bound from vertex 0).
func WithDiameter(d int) Option {
	return func(s *Simulator) {
		if d >= 0 {
			s.d = d
		}
	}
}

// WithTrace attaches a telemetry sink receiving per-round samples. Pass a
// *trace.Recorder; a nil sink, including a nil *trace.Recorder, leaves
// tracing disabled (and the idle fast-forward on).
func WithTrace(t trace.Sink) Option {
	return func(s *Simulator) {
		if r, ok := t.(*trace.Recorder); ok && r == nil {
			t = nil
		}
		s.tracer = t
	}
}

// WithEdgeCapacity sets the per-round word budget of each directed edge.
// Zero or negative means unlimited (a convenient "LOCAL model" switch for
// tests and ablations).
func WithEdgeCapacity(c int) Option {
	return func(s *Simulator) { s.capacity = c }
}

// WithFaults installs a deterministic fault plan (see internal/faults): the
// engine consults it at delivery time to drop, delay, duplicate, or sever
// messages and to keep crashed vertices from executing. A nil or empty plan
// leaves the simulator on its zero-overhead clean path, byte-identical to a
// simulator constructed without this option. Equal plans (including seeds)
// reproduce the exact same fault pattern regardless of worker count.
func WithFaults(p *faults.Plan) Option {
	return func(s *Simulator) {
		if p == nil || p.Empty() {
			s.faultPlan = nil
			return
		}
		s.faultPlan = p
	}
}

// WithIdleFastForward toggles the idle-round fast-forward (default on):
// when no vertex is active and only capacity-paced backlog remains, the
// engine jumps the round counter to the next delivery round instead of
// simulating each empty round. All observable state - counters, delivery
// order, meters - is identical either way; only wall-clock work is skipped.
func WithIdleFastForward(on bool) Option {
	return func(s *Simulator) { s.ffOff = !on }
}

// NewTopo creates a simulator over the frozen communication graph t: a
// *graph.CSR from a streaming generator, or graph.FromGraph of a
// *graph.Graph built edge by edge. Handlers iterate its adjacency through
// Topo; the engine compiles its directed-edge index on the first Run.
func NewTopo(t graph.Topology, opts ...Option) *Simulator {
	s := &Simulator{
		topo:     t,
		d:        1,
		capacity: DefaultEdgeCapacity,
		inbox:    make([][]Message, t.N()),
		meters:   make([]Meter, t.N()),
		workers:  runtime.GOMAXPROCS(0),
		rng:      rand.New(rand.NewSource(1)),
	}
	if t.N() > 0 {
		if ub, err := graph.HopRadiusUpperBound(t); err == nil {
			s.d = ub
		}
	}
	if s.d < 1 {
		s.d = 1
	}
	for _, o := range opts {
		o(s)
	}
	s.stepTask, s.deliverTask = s.stepShard, s.deliverShard
	return s
}

// Topo returns the read-only adjacency of the communication graph: the
// topology the simulator was built over.
func (s *Simulator) Topo() graph.Topology { return s.topo }

// N returns the number of processors.
func (s *Simulator) N() int { return s.topo.N() }

// Diameter returns the hop-diameter bound used for broadcast accounting.
func (s *Simulator) Diameter() int { return s.d }

// Shards returns the number of parallel execution shards (== the worker
// pool width; see WithWorkers).
func (s *Simulator) Shards() int {
	if s.workers < 1 {
		return 1
	}
	return s.workers
}

// ParallelRounds reports how many rounds ran their step phase and their
// delivery phase on the worker pool rather than inline (rounds below
// parallelMin never fork). Worker-count invariance tests use it to check
// that their P>1 runs exercised the parallel paths at all.
func (s *Simulator) ParallelRounds() (steps, deliveries int) {
	return s.parSteps, s.parDeliveries
}

// Rounds returns the total number of rounds charged so far.
func (s *Simulator) Rounds() int64 { return s.rounds }

// Messages returns the total number of messages delivered so far.
func (s *Simulator) Messages() int64 { return s.messages }

// Words returns the total number of words carried by delivered messages.
func (s *Simulator) Words() int64 { return s.words }

// Mem returns vertex v's memory meter.
func (s *Simulator) Mem(v int) *Meter { return &s.meters[v] }

// PeakMemory returns the maximum peak memory (in words) over all vertices.
func (s *Simulator) PeakMemory() int64 {
	var mx int64
	for i := range s.meters {
		if p := s.meters[i].Peak(); p > mx {
			mx = p
		}
	}
	return mx
}

// AvgPeakMemory returns the mean per-vertex peak memory in words.
func (s *Simulator) AvgPeakMemory() float64 {
	if len(s.meters) == 0 {
		return 0
	}
	var t int64
	for i := range s.meters {
		t += s.meters[i].Peak()
	}
	return float64(t) / float64(len(s.meters))
}

// FaultsEnabled reports whether a non-empty fault plan is installed.
// Handler packages use it to allocate duplicate-suppression state only when
// re-delivery is actually possible.
func (s *Simulator) FaultsEnabled() bool { return s.faultPlan != nil }

// FaultCounters returns the cumulative fault-injection tallies (zero when no
// plan is installed or no fault has fired).
func (s *Simulator) FaultCounters() faults.Counters { return s.faultCtr }

// ensureFaults lazily compiles the installed fault plan against the vertex
// count; returns nil (and stays on the clean path) without a plan.
func (s *Simulator) ensureFaults() *faults.Compiled {
	if s.faultPlan == nil {
		return nil
	}
	if s.faults == nil {
		s.faults = faults.Compile(s.faultPlan, s.N())
		if s.faults == nil { // plan turned out empty
			s.faultPlan = nil
			return nil
		}
		shards := s.workers
		if shards < 1 {
			shards = 1
		}
		s.shardFault = make([]faults.Counters, shards)
		s.shardSpike = make([][]faults.Spike, shards)
		s.ensureTopology() // a Broadcast may come before the first Run
		s.faultQ = make([]edgeFaultState, len(s.queues))
	}
	return s.faults
}

// Rand returns the simulator's deterministic RNG. Single-threaded phases
// only; per-vertex code should use DeriveRand.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// DeriveRand returns a fresh RNG for vertex v, seeded deterministically and
// independently of the simulator RNG stream position.
func (s *Simulator) DeriveRand(v int) *rand.Rand {
	return rand.New(rand.NewSource(int64(v)*0x9E3779B9 + 0x1234567))
}

// AddRounds charges extra rounds for phases accounted analytically.
func (s *Simulator) AddRounds(k int64) {
	if k > 0 {
		s.rounds += k
		if s.tracer != nil {
			s.emitSample(s.rounds, trace.KindAnalytic, k, 0, 0, 0, faults.Counters{})
		}
		s.obsSyncAll()
	}
}

// meterStats scans all meters: the max windowed instantaneous level (spikes
// included; windows reset) and the mean persistent level. Only called with
// tracing enabled.
func (s *Simulator) meterStats() (int64, float64) {
	var mx, sum int64
	for i := range s.meters {
		if w := s.meters[i].SampleWindow(); w > mx {
			mx = w
		}
		sum += s.meters[i].Current()
	}
	if len(s.meters) == 0 {
		return 0, 0
	}
	return mx, float64(sum) / float64(len(s.meters))
}

// emitSample builds and delivers one RoundSample; callers guard s.tracer.
// fd carries the interval's fault-counter deltas (zero without a plan, so
// the omitempty fields keep clean exports v1-shaped).
func (s *Simulator) emitSample(round int64, kind string, rounds int64, active int, msgs, words int64, fd faults.Counters) {
	mx, mean := s.meterStats()
	s.tracer.RoundSample(trace.RoundSample{
		Round:      round,
		Rounds:     rounds,
		Kind:       kind,
		Active:     active,
		Messages:   msgs,
		Words:      words,
		Backlog:    s.queueBacklog(),
		MemMax:     mx,
		MemMean:    mean,
		Dropped:    fd.Dropped,
		Retried:    fd.Retried,
		Lost:       fd.Lost,
		Duplicated: fd.Duplicated,
		Discarded:  fd.Discarded,
	})
}

// Ctx is the per-vertex, per-round execution context handed to StepFuncs.
// Contexts are pooled by the engine and recycled across rounds.
type Ctx struct {
	sim     *Simulator
	v       int
	round   int
	in      []Message
	outEdge []int32 // out-edges this step transitioned from empty to backed
	extBuf  []uint64
	wakeAt  int // earliest round requested by WakeAt this step; 0 = none
	// arena is the payload arena of the shard executing this step — the
	// serial arena on the serial path, the owning worker's shardArena slot
	// on the parallel path — so Ext clones in Send never contend.
	arena *wordArena
}

// Round returns the index of the current round within the active Run.
func (c *Ctx) Round() int { return c.round }

// In returns the messages delivered to this vertex at the start of the
// round. The slice is owned by the engine; process it streaming.
func (c *Ctx) In() []Message { return c.in }

// Mem returns this vertex's memory meter.
func (c *Ctx) Mem() *Meter { return c.sim.Mem(c.v) }

// Wake keeps this vertex scheduled next round even if it receives nothing.
func (c *Ctx) Wake() { c.WakeAt(c.round + 1) }

// WakeAt schedules this vertex to step in round r of the current Run even if
// it receives nothing; until then it sleeps, stepping earlier only when a
// message arrives. A round at or before the current one means the next
// round. Only the earliest request of a step is kept, so a step that still
// needs a later round re-arms it when it next runs; a pending timer fires
// whatever later steps request. Timers left when Run returns are dropped.
// Under a fault plan with crash windows WakeAt behaves like Wake, so a
// vertex that is down when it steps loses its wake-up exactly as a spinning
// vertex would (DESIGN.md §9).
func (c *Ctx) WakeAt(r int) {
	if r <= c.round || c.sim.spinTimers {
		r = c.round + 1
	}
	if c.wakeAt == 0 || r < c.wakeAt {
		c.wakeAt = r
	}
}
