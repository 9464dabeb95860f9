package treeroute

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/trace"
)

// DistOptions configures the distributed low-memory construction.
type DistOptions struct {
	// Q is the portal sampling probability. Zero selects the paper's
	// 1/sqrt(s*n) default, where s is the number of trees.
	Q float64
	// Seed drives portal sampling and start-time offsets.
	Seed int64
	// MaxOffset bounds the random start-time offsets used to de-congest
	// parallel multi-tree construction. Zero selects the paper's
	// O(sqrt(s*n)*log n) default when more than one tree is built, and no
	// offsets for a single tree.
	MaxOffset int
	// Trace, when non-nil, records one span per construction phase
	// (local-roots, local-sizes, global-sizes, ...). Nil disables span
	// recording at no cost.
	Trace *trace.Recorder
	// Ckpt, when non-nil, brackets every phase as a checkpoint unit
	// ("tree:local-roots", ...): a snapshot is written after each, and a
	// resumed build skips completed phases, restoring the builder's durable
	// state at the cursor. The checkpointer must already be attached to the
	// simulator (core.Build does this; direct callers call Attach).
	Ckpt *congest.Checkpointer
}

// DistResult carries the schemes built by BuildDistributed plus
// construction-level statistics (simulation counters live on the Simulator).
type DistResult struct {
	Schemes []*Scheme
	// Portals[j] is |U(T_j)|, the number of sampled portal vertices of
	// tree j (including its root).
	Portals []int
	// Iterations is the number of pointer-jumping iterations executed per
	// pointer-jumping stage.
	Iterations int
}

// BuildDistributed runs the paper's Section 3 + Appendix A construction on
// the given simulator for every tree in parallel: portal sampling, local
// subtree sizes, pointer-jumped global sizes (Algorithm 1), local and global
// light edges (Algorithms 2-3), sibling prefix sums and local DFS ranges
// (Algorithms 4-5), and global DFS shifts (Algorithm 6). Each vertex uses
// O(log n) words per tree; tables are O(1) and labels O(log n) words.
func BuildDistributed(sim *congest.Simulator, trees []*graph.Tree, opts DistOptions) (*DistResult, error) {
	if len(trees) == 0 {
		return &DistResult{}, nil
	}
	n := sim.N()
	topo := sim.Topo()
	for j, t := range trees {
		if t.HostSize() != n {
			return nil, fmt.Errorf("treeroute: tree %d host size %d != graph size %d", j, t.HostSize(), n)
		}
		for i, v := range t.Members() {
			if p := t.ParentAt(i); p != graph.NoVertex && !graph.TopoHasEdge(topo, v, p) {
				return nil, fmt.Errorf("treeroute: tree %d edge {%d,%d} is not a graph edge", j, v, p)
			}
		}
	}

	b := newDistBuilder(sim, trees, opts)
	ck := opts.Ckpt
	if err := ck.Register(b); err != nil {
		return nil, err
	}
	// Each phase is a checkpoint unit: skipped entirely when the resumed
	// cursor already covers it, snapshotted after running otherwise.
	for _, ph := range b.phases() {
		unit := "tree:" + ph.name
		done, err := ck.UnitDone(unit)
		if err != nil {
			return nil, err
		}
		if done {
			continue
		}
		if err := ph.run(); err != nil {
			return nil, err
		}
		ck.Mark(unit)
	}

	res := &DistResult{Iterations: b.iters}
	for _, st := range b.ts {
		res.Schemes = append(res.Schemes, st.finish())
		res.Portals = append(res.Portals, st.portals())
	}
	return res, nil
}

// newDistBuilder samples every tree's portals and start offset from
// opts.Seed and sets up the builder's membership index and round cap.
func newDistBuilder(sim *congest.Simulator, trees []*graph.Tree, opts DistOptions) *distBuilder {
	n := sim.N()
	b := &distBuilder{
		sim:   sim,
		n:     n,
		iters: pointerJumpIterations(n),
		rng:   rand.New(rand.NewSource(opts.Seed)),
		tr:    opts.Trace,
	}
	q := opts.Q
	if q <= 0 || q > 1 {
		q = 1 / math.Sqrt(float64(len(trees))*float64(n))
	}
	maxOffset := opts.MaxOffset
	if maxOffset <= 0 && len(trees) > 1 {
		maxOffset = int(math.Sqrt(float64(len(trees))*float64(n))*math.Log2(float64(n+1))) + 1
	}
	for j, t := range trees {
		b.ts = append(b.ts, newTreeState(j, t, q, maxOffset, b.rng))
	}
	b.buildMembership()
	b.schedOff = make([]int32, n+1)
	// The cap is generous: local phases are bounded by tree height times
	// list transmission time; hitting the cap means a bug, not load.
	b.cap = 16*n*(b.iters+2) + 64*b.iters + 4096
	return b
}

// buildPhase is one step of the construction, named as its trace span.
type buildPhase struct {
	name string
	run  func() error
}

// phases lists the ten construction phases in order. The pointer-jumping
// stages have no convergence to detect, so they cannot fail.
func (b *distBuilder) phases() []buildPhase {
	jump := func(name string, phase func()) buildPhase {
		return buildPhase{name, func() error { b.spanned(name, phase); return nil }}
	}
	return []buildPhase{
		{"local-roots", b.phaseLocalRoots},
		{"local-sizes", b.phaseLocalSizes},
		jump("global-sizes", b.phaseGlobalSizes),
		{"sizes-down", b.phaseSizesDown},
		{"local-light", b.phaseLocalLight},
		jump("global-light", b.phaseGlobalLight),
		{"light-down", b.phaseLightDown},
		{"local-dfs", b.phaseLocalDFS},
		jump("global-shifts", b.phaseGlobalShifts),
		{"shifts-down", b.phaseShiftsDown},
	}
}

func pointerJumpIterations(n int) int {
	it := 1
	for 1<<it < n {
		it++
	}
	return it + 1
}

// treeState is the per-tree slice of every member vertex's local memory,
// indexed by local member index (position in tree.Members()) so that host
// memory stays proportional to the tree size, not the graph size. A vertex
// only ever reads and writes its own index, which keeps the per-round
// goroutine pool race-free.
type treeState struct {
	idx    int
	tree   *graph.Tree
	offset int
	verts  []int // local index -> host vertex (= tree.Members())

	inU        []bool
	localRoot  []int
	virtParent []int // p'(x) for portals (host ids)
	pending    []int // outstanding child reports in convergecasts
	acc        []int // running sum in convergecasts
	size       []int // s_y: global subtree size in T
	heavy      []int // host id
	heavyBest  []int // best child size seen so far

	anc [][]int // anc[l][i] = a_i (host id) for portals
	pjS []int   // s_i(x) during Algorithm 1
	pjA []int   // a_i(x) during Algorithm 1 (host id)

	lightLocal  [][]LightEdge // light edges from the local root to v
	lightGlobal [][]LightEdge // for portals: light edges from the tree root
	fullLight   [][]LightEdge

	sibIdx   []int // 1-based index among siblings
	lowSum   []int // prefix adds with iteration < tz(sibIdx)
	highSum  []int // prefix adds with iteration >= tz(sibIdx)
	addMask  []int // bitmask of iterations whose add arrived
	sentAdd  []bool
	localIn  []int // DFS entry time in the local frame
	qShift   []int // q_x: enclosing-frame range start minus one (portals)
	shift    []int // final accumulated shift
	haveIn   []bool
	haveQ    []bool
	dfsDone  []bool
	finalIn  []int
	finalOut []int

	// Per-iteration scratch for the pointer-jumping stages (commit targets
	// so broadcast handling stays synchronous). tmpW aliases the received
	// broadcast tail (caller-owned words, valid until the next iteration's
	// encode); the commit loop decodes it.
	tmpA   []int
	tmpS   []int
	tmpQ   []int
	tmpW   [][]uint64
	tmpGot []bool

	// Builder-side indexes of the pointer-jumping broadcasts (not vertex
	// memory, like the builder's msgs): msgAt[l] is portal l's message slot,
	// the same in every iteration of every stage; jumpHead[l] heads the
	// Algorithm 1 list of messages whose a_i(w) is portal l (chained through
	// distBuilder.jumpNext), -1 when empty.
	msgAt    []int32
	jumpHead []int32

	// Duplicate-suppression state for faulty runs. A fault plan's Duplicate
	// rolls can re-deliver a message, so the size convergecasts track which
	// child slots already reported and the light floods whether their single
	// expected message was consumed. Allocated only when the simulator has a
	// fault plan installed; like retry buffers, recovery bookkeeping is not
	// algorithm state and is exempt from memory charging (lint LM002's Seen
	// exemption).
	sizeSeen  [][]bool // per local index: child slots whose size report arrived
	lightSeen []bool   // per local index: light-list flood message consumed
}

func newTreeState(idx int, t *graph.Tree, q float64, maxOffset int, rng *rand.Rand) *treeState {
	m := t.Size()
	st := &treeState{
		idx:         idx,
		tree:        t,
		verts:       t.Members(),
		inU:         make([]bool, m),
		localRoot:   make([]int, m),
		virtParent:  make([]int, m),
		pending:     make([]int, m),
		acc:         make([]int, m),
		size:        make([]int, m),
		heavy:       make([]int, m),
		heavyBest:   make([]int, m),
		anc:         make([][]int, m),
		pjS:         make([]int, m),
		pjA:         make([]int, m),
		lightLocal:  make([][]LightEdge, m),
		lightGlobal: make([][]LightEdge, m),
		fullLight:   make([][]LightEdge, m),
		sibIdx:      make([]int, m),
		lowSum:      make([]int, m),
		highSum:     make([]int, m),
		addMask:     make([]int, m),
		sentAdd:     make([]bool, m),
		localIn:     make([]int, m),
		qShift:      make([]int, m),
		shift:       make([]int, m),
		haveIn:      make([]bool, m),
		haveQ:       make([]bool, m),
		dfsDone:     make([]bool, m),
		finalIn:     make([]int, m),
		finalOut:    make([]int, m),
		msgAt:       make([]int32, m),
	}
	for l := range st.localRoot {
		st.localRoot[l] = graph.NoVertex
		st.virtParent[l] = graph.NoVertex
		st.heavy[l] = graph.NoVertex
		st.heavyBest[l] = -1
		st.pjA[l] = graph.NoVertex
	}
	if maxOffset > 0 {
		st.offset = rng.Intn(maxOffset)
	}
	for l, v := range st.verts {
		if v == t.Root || rng.Float64() < q {
			st.inU[l] = true
		}
	}
	return st
}

// resetConvergecast arms a size convergecast in every tree: each member
// awaits one report per child and counts itself. Under a fault plan it also
// (re)arms the per-child duplicate filters.
func (b *distBuilder) resetConvergecast() {
	faulty := b.sim.FaultsEnabled()
	for _, st := range b.ts {
		if faulty && st.sizeSeen == nil {
			st.sizeSeen = make([][]bool, len(st.verts))
		}
		for l := range st.verts {
			kids := len(st.tree.ChildrenAt(l))
			st.pending[l], st.acc[l] = kids, 1
			if faulty {
				st.sizeSeen[l] = slices.Grow(st.sizeSeen[l][:0], kids)[:kids]
				clear(st.sizeSeen[l])
			}
		}
	}
}

// resetLightSeen (re)arms every tree's one-shot duplicate filters for a
// light flood. Only under a fault plan.
func (b *distBuilder) resetLightSeen() {
	if !b.sim.FaultsEnabled() {
		return
	}
	for _, st := range b.ts {
		st.lightSeen = slices.Grow(st.lightSeen[:0], len(st.verts))[:len(st.verts)]
		clear(st.lightSeen)
	}
}

// dupSize reports whether a size report from child c of verts[l] was already
// consumed this convergecast, marking it consumed otherwise. Always false
// when no fault plan is set (sizeSeen stays nil).
func (st *treeState) dupSize(l, c int) bool {
	if st.sizeSeen == nil {
		return false
	}
	for i, x := range st.tree.ChildrenAt(l) {
		if x == c {
			if st.sizeSeen[l][i] {
				return true
			}
			st.sizeSeen[l][i] = true
			return false
		}
	}
	return true // not a current child: stale duplicate, drop it
}

// dupLight reports whether verts[l]'s single expected flood message was
// already consumed, marking it consumed otherwise. Always false when no
// fault plan is set (lightSeen stays nil).
func (st *treeState) dupLight(l int) bool {
	if st.lightSeen == nil {
		return false
	}
	if st.lightSeen[l] {
		return true
	}
	st.lightSeen[l] = true
	return false
}

func (st *treeState) portals() int {
	c := 0
	for l := range st.verts {
		if st.inU[l] {
			c++
		}
	}
	return c
}

// finish assembles the Scheme from per-vertex state.
func (st *treeState) finish() *Scheme {
	s := &Scheme{
		Root:   st.tree.Root,
		Tables: make(map[int]Table, len(st.verts)),
		Labels: make(map[int]Label, len(st.verts)),
	}
	for l, v := range st.verts {
		s.Tables[v] = Table{
			In:     st.finalIn[l],
			Out:    st.finalOut[l],
			Parent: st.tree.ParentAt(l),
			Heavy:  st.heavy[l],
		}
		s.Labels[v] = Label{In: st.finalIn[l], Light: st.fullLight[l]}
	}
	return s
}

type distBuilder struct {
	sim   *congest.Simulator
	n     int
	iters int
	cap   int
	rng   *rand.Rand
	tr    *trace.Recorder
	ts    []*treeState

	// Host-vertex membership CSR: membEnt[membOff[v]:membOff[v+1]] lists the
	// (tree, local index) pairs of the trees containing v, in ascending tree
	// order. Step functions and receive paths iterate or search this segment
	// instead of scanning every treeState and binary-searching its member
	// list per message — builder-side bookkeeping, like msgs/extBufs, not
	// vertex memory.
	membOff []int32
	membEnt []membEntry

	// Kickoff schedule of the running local phase (schedule/due), rebuilt
	// in place by each: schedEnt[schedOff[v]:schedOff[v+1]] lists v's
	// memberships that start the phase, sorted by (offset, tree), and
	// initial lists the vertices with any.
	schedOff []int32
	schedEnt []schedEntry
	initial  []int

	// Reusable broadcast buffers for the pointer-jumping stages: the
	// message slice and the per-message-index payload tails (broadcast
	// tails stay caller-owned, so per-index pooling is safe).
	msgs    []congest.BroadcastMsg
	extBufs [][]uint64

	// jumpNext[j] is the next message on message j's treeState.jumpHead
	// list, -1 at the end.
	jumpNext []int32
}

type membEntry struct{ tree, local int32 }

// schedEntry is one scheduled kickoff: member local of tree starts the
// running phase in round off (the tree's start offset).
type schedEntry struct{ off, tree, local int32 }

// buildMembership assembles the host-vertex → (tree, local index) CSR. Trees
// are appended in ascending index order, so each vertex's segment comes out
// sorted by tree — the same visit order as the former scan over b.ts.
func (b *distBuilder) buildMembership() {
	off := make([]int32, b.n+1)
	for _, st := range b.ts {
		for _, v := range st.verts {
			off[v+1]++
		}
	}
	for v := 0; v < b.n; v++ {
		off[v+1] += off[v]
	}
	ent := make([]membEntry, off[b.n])
	cur := make([]int32, b.n)
	copy(cur, off[:b.n])
	for j, st := range b.ts {
		for l, v := range st.verts {
			ent[cur[v]] = membEntry{tree: int32(j), local: int32(l)}
			cur[v]++
		}
	}
	b.membOff, b.membEnt = off, ent
}

// memb returns v's membership segment (ascending tree index, alloc-free).
func (b *distBuilder) memb(v int) []membEntry {
	return b.membEnt[b.membOff[v]:b.membOff[v+1]]
}

// local returns v's local index in st, or -1 when v is not a member: a
// binary search over v's membership segment, which is much shorter than
// st's member list.
func (b *distBuilder) local(st *treeState, v int) int {
	seg := b.memb(v)
	lo, hi := 0, len(seg)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(seg[mid].tree) < st.idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(seg) && int(seg[lo].tree) == st.idx {
		return int(seg[lo].local)
	}
	return -1
}

// portalSlot returns x's local index in st when x is one of st's portals, -1
// otherwise (x may be NoVertex, the ancestor past the root).
func (b *distBuilder) portalSlot(st *treeState, x int) int {
	if x == graph.NoVertex {
		return -1
	}
	if l := b.local(st, x); l >= 0 && st.inU[l] {
		return l
	}
	return -1
}

// appendPortalMsg appends portal l's message to the pointer-jumping
// broadcast and records its slot in st.msgAt.
func (b *distBuilder) appendPortalMsg(st *treeState, l int, m congest.BroadcastMsg) int32 {
	j := int32(len(b.msgs))
	st.msgAt[l] = j
	b.msgs = append(b.msgs, m)
	return j
}

// portalMsg returns the pointer-jumping message of st's portal x if it
// reached the receiving vertex, nil otherwise. A receiver wants the message
// of one known origin, its 2^i-ancestor; the slot index finds it without
// reading the other M-1 messages.
func (b *distBuilder) portalMsg(d *congest.Delivery, st *treeState, x int) *congest.BroadcastMsg {
	if lx := b.portalSlot(st, x); lx >= 0 {
		return d.At(int(st.msgAt[lx]))
	}
	return nil
}

// isFrom reports whether a pointer-jumping payload is portal x's message in
// st. A receiver knows a broadcast message only by these words; the slot
// index (portalMsg, jumpHead) just spares it reading the others.
func isFrom(p *congest.Payload, st *treeState, x int) bool {
	return congest.WordInt(p.W0) == st.idx && congest.WordInt(p.W1) == x
}

// extBuf returns the reusable tail buffer for broadcast message index i.
func (b *distBuilder) extBuf(i, n int) []uint64 {
	for len(b.extBufs) <= i {
		b.extBufs = append(b.extBufs, nil)
	}
	if cap(b.extBufs[i]) < n {
		b.extBufs[i] = make([]uint64, n)
	}
	return b.extBufs[i][:n]
}

// runPhase wraps Simulator.Run with convergence detection and a trace span,
// then returns the first error check (nil: none) reports for a member, in
// (tree, member) order.
func (b *distBuilder) runPhase(name string, initial []int, step congest.StepFunc, check func(st *treeState, l int) error) error {
	sp := b.tr.Begin(name)
	defer sp.End()
	if b.sim.Run(initial, b.cap, step) >= b.cap {
		return fmt.Errorf("treeroute: phase %q did not converge within %d rounds", name, b.cap)
	}
	for i := 0; check != nil && i < len(b.ts); i++ {
		for l := range b.ts[i].verts {
			if err := check(b.ts[i], l); err != nil {
				return err
			}
		}
	}
	return nil
}

// spanned runs a pointer-jumping stage (no convergence to detect) under a
// trace span.
func (b *distBuilder) spanned(name string, phase func()) {
	sp := b.tr.Begin(name)
	phase()
	sp.End()
}

// schedule builds the running phase's kickoff schedule from the phase's
// predicate over (tree, local index) and returns its initial active set.
// kick must be a plain function, not a closure: a warm schedule allocates
// nothing.
func (b *distBuilder) schedule(kick func(st *treeState, l int) bool) []int {
	b.schedEnt, b.initial = b.schedEnt[:0], b.initial[:0]
	for v := 0; v < b.n; v++ {
		start := len(b.schedEnt)
		b.schedOff[v] = int32(start)
		for _, e := range b.memb(v) {
			if st := b.ts[e.tree]; kick(st, int(e.local)) {
				b.schedEnt = append(b.schedEnt, schedEntry{off: int32(st.offset), tree: e.tree, local: e.local})
			}
		}
		if seg := b.schedEnt[start:]; len(seg) > 0 {
			// memb is in tree order, so a stable sort gives (offset, tree).
			slices.SortStableFunc(seg, func(x, y schedEntry) int { return cmp.Compare(x.off, y.off) })
			b.initial = append(b.initial, v)
		}
	}
	b.schedOff[b.n] = int32(len(b.schedEnt))
	return b.initial
}

// due returns v's scheduled memberships whose tree starts the running phase
// this round, and arms v's timer for its next scheduled start, so a vertex
// sleeps between its start offsets.
func (b *distBuilder) due(v int, ctx *congest.Ctx) []schedEntry {
	seg := b.schedEnt[b.schedOff[v]:b.schedOff[v+1]]
	r := ctx.Round()
	lo, hi := 0, len(seg)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(seg[mid].off) < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	end := lo
	for end < len(seg) && int(seg[end].off) == r {
		end++
	}
	if end < len(seg) {
		ctx.WakeAt(int(seg[end].off))
	}
	return seg[lo:end]
}
