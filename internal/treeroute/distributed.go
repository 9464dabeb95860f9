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
}

// DistResult carries the schemes built by BuildDistributed plus
// construction-level statistics (simulation counters live on the Simulator).
type DistResult struct {
	Schemes []*Scheme
	// Portals[j] is |U(T_j)|, the number of sampled portal vertices of
	// tree j (including its root).
	Portals []int
}

// BuildDistributed runs the paper's Section 3 + Appendix A construction on
// the given simulator for every tree in parallel: portal sampling, local
// subtree sizes, pointer-jumped global sizes (Algorithm 1), local and global
// light edges (Algorithms 2-3), sibling prefix sums and local DFS ranges
// (Algorithms 4-5), and global DFS shifts (Algorithm 6). Each vertex uses
// O(log n) words per tree; tables are O(1) and labels O(log n) words. Each
// phase (local-roots, local-sizes, global-sizes, ...) runs under a span on
// the simulator's trace sink.
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
		for i := 0; i < t.Size(); i++ {
			if v, p := t.MemberAt(i), t.ParentAt(i); p != graph.NoVertex && !graph.TopoHasEdge(topo, v, p) {
				return nil, fmt.Errorf("treeroute: tree %d edge {%d,%d} is not a graph edge", j, v, p)
			}
		}
	}

	b := newDistBuilder(sim, trees, opts)
	for _, ph := range b.phases() {
		if err := ph.run(); err != nil {
			return nil, err
		}
	}

	res := &DistResult{}
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
	}
	q := opts.Q
	if q <= 0 || q > 1 {
		q = 1 / math.Sqrt(float64(len(trees))*float64(n))
	}
	maxOffset := opts.MaxOffset
	if maxOffset <= 0 && len(trees) > 1 {
		maxOffset = int(math.Sqrt(float64(len(trees))*float64(n))*math.Log2(float64(n+1))) + 1
	}
	members := 0
	for _, t := range trees {
		members += t.Size()
	}
	sl := newMemberSlabs(members)
	states := make([]treeState, len(trees))
	b.ts = make([]*treeState, len(trees))
	counts := make([]int, len(trees))
	portals := 0
	for j, t := range trees {
		counts[j] = states[j].init(j, t, q, maxOffset, b.rng, sl)
		portals += counts[j]
		b.ts[j] = &states[j]
	}
	ps := newPortalSlabs(portals)
	pbase := 0
	for j := range states {
		states[j].initPortals(counts[j], pbase, ps)
		pbase += counts[j]
	}
	b.jumpA, b.jumpS, b.jumpQ = make([]int32, portals), make([]int32, portals), make([]int32, portals)
	b.jumpHead, b.jumpNext = make([]int32, portals), make([]int32, portals)
	b.jumpW, b.jumpGot = make([][]uint64, portals), make([]bool, portals)
	b.msgs = make([]congest.BroadcastMsg, 0, portals) // a stage broadcasts one message per portal
	b.buildMembership()
	b.schedOff = make([]int32, n+1)
	b.schedEnt = make([]schedEntry, 0, members) // a kickoff per membership at most
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
// memory stays proportional to the tree size, not the graph size: m[l] is
// member l's record. State only portals hold is indexed by portal slot
// instead (memberState.portal, portalAt): portals are a 1/sqrt(s*n) sample,
// so that state stays proportional to their count. A vertex only ever reads
// and writes its own index, which keeps the per-round goroutine pool
// race-free. The arrays are carved from the builder's treeSlabs.
type treeState struct {
	idx    int
	tree   *graph.Tree
	offset int
	verts  []int // local index -> host vertex (= tree.Members())
	m      []memberState

	portalAt []int32 // portal slot -> local index, ascending
	// pbase is the pointer-jumping message slot of portal slot 0: every
	// stage broadcasts one message per portal, trees in order and each
	// tree's portals by slot, so portal px owns message slot pbase+px.
	pbase int

	lightLocal [][]LightEdge // light edges from the local root to v
	fullLight  [][]LightEdge

	// Per portal slot.
	virtParent  []int32       // p'(x) (host id)
	anc         [][]int32     // anc[px][i] = a_i (host id)
	pjS         []int32       // s_i(x) during Algorithm 1
	pjA         []int32       // a_i(x) during Algorithm 1 (host id)
	lightGlobal [][]LightEdge // light edges from the tree root
	shift       []int32       // final accumulated shift

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

// memberState is one member vertex's record in one tree. Host ids, local
// indices, sizes and DFS numbers all stay below n, so every number is an
// int32.
type memberState struct {
	portal    int32 // portal slot, -1 for a non-portal
	localRoot int32
	pending   int32 // outstanding child reports in convergecasts
	acc       int32 // running sum in convergecasts
	size      int32 // s_y: global subtree size in T
	heavy     int32 // host id
	heavyBest int32 // best child size seen so far
	sibIdx    int32 // 1-based index among siblings
	lowSum    int32 // prefix adds with iteration < tz(sibIdx)
	highSum   int32 // prefix adds with iteration >= tz(sibIdx)
	addMask   int32 // bitmask of iterations whose add arrived
	localIn   int32 // DFS entry time in the local frame
	qShift    int32 // q_x: enclosing-frame range start minus one (portals)
	finalIn   int32
	finalOut  int32
	sentAdd   bool
	haveIn    bool
	haveQ     bool
	dfsDone   bool
}

// inU reports whether the member is a portal, in the sampled set U(T).
func (m *memberState) inU() bool { return m.portal >= 0 }

// treeSlabs backs the treeStates of a build with one allocation per element
// type, instead of some thirty per tree. A build takes two: one sized by the
// member count for the per-member arrays, one sized by the portal count for
// the per-portal arrays. (The rows of anc come from one more allocation in
// phaseGlobalSizes.)
type treeSlabs struct {
	ints    slab[int]
	members slab[memberState]
	int32s  slab[int32]
	lists   slab[[]LightEdge]
	rows    slab[[]int32]
}

// Array counts per member and per portal, by element type: the treeSlabs
// are sized from these, and treeState.init and initPortals carve exactly as
// many.
const (
	memberLists               = 2
	portalInt32s, portalLists = 5, 1
)

func newMemberSlabs(members int) *treeSlabs {
	return &treeSlabs{
		ints:    slab[int]{make([]int, members)},
		members: slab[memberState]{make([]memberState, members)},
		lists:   slab[[]LightEdge]{make([][]LightEdge, memberLists*members)},
	}
}

func newPortalSlabs(portals int) *treeSlabs {
	return &treeSlabs{
		int32s: slab[int32]{make([]int32, portalInt32s*portals)},
		lists:  slab[[]LightEdge]{make([][]LightEdge, portalLists*portals)},
		rows:   slab[[]int32]{make([][]int32, portals)},
	}
}

// slab carves consecutive full-capacity-bounded slices from one array.
type slab[T any] struct{ buf []T }

func (s *slab[T]) take(n int) []T {
	x := s.buf[:n:n]
	s.buf = s.buf[n:]
	return x
}

// init sets up tree idx's per-member state, its arrays carved from sl, and
// samples its portals and start offset from rng. It returns the portal
// count; initPortals completes the state.
func (st *treeState) init(idx int, t *graph.Tree, q float64, maxOffset int, rng *rand.Rand, sl *treeSlabs) int {
	n := t.Size()
	*st = treeState{
		idx:        idx,
		tree:       t,
		verts:      sl.ints.take(n),
		m:          sl.members.take(n),
		lightLocal: sl.lists.take(n),
		fullLight:  sl.lists.take(n),
	}
	for l := range st.verts {
		st.verts[l] = t.MemberAt(l)
		st.m[l] = memberState{portal: -1, localRoot: graph.NoVertex, heavy: graph.NoVertex, heavyBest: -1}
	}
	if maxOffset > 0 {
		st.offset = rng.Intn(maxOffset)
	}
	portals := 0
	for l, v := range st.verts {
		if v == t.Root || rng.Float64() < q {
			st.m[l].portal = int32(portals)
			portals++
		}
	}
	return portals
}

// initPortals carves the per-portal arrays of a tree with p portals, whose
// messages start at slot pbase, from sl.
func (st *treeState) initPortals(p, pbase int, sl *treeSlabs) {
	int32s := sl.int32s.take
	st.pbase = pbase
	st.portalAt = int32s(p)
	st.virtParent, st.pjS, st.pjA, st.shift = int32s(p), int32s(p), int32s(p), int32s(p)
	st.lightGlobal = sl.lists.take(p)
	st.anc = sl.rows.take(p)
	for l := range st.m {
		if px := st.m[l].portal; px >= 0 {
			st.portalAt[px] = int32(l)
		}
	}
	for px := range st.portalAt {
		st.virtParent[px] = graph.NoVertex
		st.pjA[px] = graph.NoVertex
	}
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
			st.m[l].pending, st.m[l].acc = int32(kids), 1
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

func (st *treeState) portals() int { return len(st.portalAt) }

// finish assembles the Scheme from per-member state; the tree's member
// slots are the state's local indices.
func (st *treeState) finish() *Scheme {
	s := &Scheme{
		Tree:   st.tree,
		Tables: make([]Table, len(st.verts)),
		Labels: make([]Label, len(st.verts)),
	}
	for l := range st.verts {
		s.Tables[l] = Table{
			In:     int(st.m[l].finalIn),
			Out:    int(st.m[l].finalOut),
			Parent: st.tree.ParentAt(l),
			Heavy:  int(st.m[l].heavy),
		}
		s.Labels[l] = Label{In: int(st.m[l].finalIn), Light: st.fullLight[l]}
	}
	return s
}

type distBuilder struct {
	sim   *congest.Simulator
	n     int
	iters int
	cap   int
	rng   *rand.Rand
	ts    []*treeState

	// Host-vertex membership CSR: membEnt[membOff[v]:membOff[v+1]] lists the
	// (tree, local index) pairs of the trees containing v, in ascending tree
	// order. Step functions and receive paths iterate or search this segment
	// instead of scanning every treeState and binary-searching its member
	// list per message — builder-side bookkeeping, like msgs/bodies, not
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
	// message slice and the per-message-index bodies.
	msgs   []congest.BroadcastMsg
	bodies congest.BodyBufs

	// Pointer-jumping scratch, by message slot (treeState.pbase). jumpA,
	// jumpS, jumpQ, jumpW and jumpGot are the portals' commit targets, so
	// broadcast handling stays synchronous; jumpW aliases a received body
	// (caller-owned words, valid until the next iteration's encode), which
	// the commit loop decodes. jumpHead[j] heads the Algorithm 1 list of
	// messages whose a_i(w) is slot j's portal, chained through jumpNext, -1
	// at the end: builder-side indexes, not vertex memory, like msgs.
	jumpA, jumpS, jumpQ []int32
	jumpW               [][]uint64
	jumpGot             []bool
	jumpHead, jumpNext  []int32
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

// portalSlot returns x's portal slot in st when x is one of st's portals, -1
// otherwise (x may be NoVertex, the ancestor past the root).
func (b *distBuilder) portalSlot(st *treeState, x int) int {
	if x == graph.NoVertex {
		return -1
	}
	if l := b.local(st, x); l >= 0 {
		return int(st.m[l].portal)
	}
	return -1
}

// portalMsg returns the pointer-jumping message of st's portal x if it
// reached the receiving vertex, nil otherwise. A receiver wants the message
// of one known origin, its 2^i-ancestor; the slot index finds it without
// reading the other M-1 messages.
func (b *distBuilder) portalMsg(d *congest.Delivery, st *treeState, x int) *congest.BroadcastMsg {
	if px := b.portalSlot(st, x); px >= 0 {
		return d.At(st.pbase + px)
	}
	return nil
}

// isFrom reports whether a pointer-jumping payload is portal x's message in
// st. A receiver knows a broadcast message only by these words; the slot
// index (portalMsg, jumpHead) just spares it reading the others.
func isFrom(p *congest.Payload, st *treeState, x int) bool {
	return congest.WordInt(p.W0) == st.idx && congest.WordInt(p.W1) == x
}

// runPhase wraps Simulator.Run with convergence detection and a span on the
// simulator's trace sink, then returns the first error check (nil: none) reports for a member, in
// (tree, member) order.
func (b *distBuilder) runPhase(name string, initial []int, step congest.StepFunc, check func(st *treeState, l int) error) error {
	sp := trace.Begin(b.sim.Trace(), name)
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
	sp := trace.Begin(b.sim.Trace(), name)
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
