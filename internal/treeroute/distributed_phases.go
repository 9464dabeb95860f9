package treeroute

import (
	"fmt"
	"math/bits"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

// Message kinds. Every payload carries its tree index t in W0; word counts
// include it (a tree id is an identity, one word in the CONGEST RAM model).
// Light-edge lists travel in the message body as (Parent, Child) word
// pairs, preceded by an inline length word.
const (
	kindRoot   congest.PayloadKind = iota + 1 // phase A: local-tree flood (W1=root)
	kindSize                                  // phases B and D: convergecasts (W1=size)
	kindLight                                 // phase E: local light lists (W1=light, W2=len, body=pairs)
	kindGLight                                // phase G: global light flood (W1=len, body=pairs)
	kindIdx                                   // phase H: sibling index (W1=idx)
	kindAdd                                   // phase H: prefix add, child->parent (W1=idx, W2=val)
	kindFwd                                   // phase H: prefix add, parent->targets (W1=iter, W2=val)
	kindRange                                 // phase H: parent's DFS range start (W1=a)
	kindShift                                 // phase J: final shift flood (W1=shift)
	kindBSize                                 // Algorithm 1 broadcast (W1=x, W2=a, W3=s)
	kindBLight                                // Algorithm 3 broadcast (W1=x, W2=len, Body=pairs)
	kindBShift                                // Algorithm 6 broadcast (W1=x, W2=q)
)

// Word counts for the fixed-size payloads above. Variable-size payloads
// (kindLight, kindGLight, kindBLight) are sized at the send site from
// lightWords plus their inline head.
const (
	pRootWords  = 2
	pSizeWords  = 2
	pIdxWords   = 2
	pAddWords   = 3
	pFwdWords   = 3
	pRangeWords = 2
	pShiftWords = 2
	bSizeWords  = 4
	bShiftWords = 3
)

func lightWords(list []LightEdge) int { return 2 * len(list) }

// encodeLight writes list as (Parent, Child) word pairs into dst, which must
// hold lightWords(list) words.
func encodeLight(dst []uint64, list []LightEdge) {
	for j, e := range list {
		dst[2*j] = congest.IntWord(e.Parent)
		dst[2*j+1] = congest.IntWord(e.Child)
	}
}

// Kick predicates (schedule): the memberships that start a local phase at
// their tree's offset. The portal floods start at the portals, local-sizes
// at the leaves, sizes-down also at the non-root portals (which report
// their global size), and local-dfs at every parent or portal.
func isPortal(st *treeState, l int) bool { return st.m[l].inU() }
func isLeaf(st *treeState, l int) bool   { return st.m[l].pending == 0 }
func reportsSize(st *treeState, l int) bool {
	return (st.m[l].inU() && st.verts[l] != st.tree.Root) || st.m[l].pending == 0
}
func opensFrame(st *treeState, l int) bool { return st.m[l].inU() || len(st.tree.ChildrenAt(l)) > 0 }

// Phase output checks (runPhase): a message lost past the retry budget can
// leave a phase quiescent with its output broken, which the build reports
// as an error.

// sizeMismatch: a completed portal convergecast must agree with Algorithm 1.
func sizeMismatch(st *treeState, l int) error {
	if st.m[l].inU() && st.m[l].pending == 0 && st.m[l].acc != st.m[l].size {
		return fmt.Errorf("treeroute: tree %d portal %d: convergecast size %d != pointer-jump size %d",
			st.idx, st.verts[l], st.m[l].acc, st.m[l].size)
	}
	return nil
}

// noShiftSeed: Algorithm 6 needs every non-root portal's shift seed q_x.
func noShiftSeed(st *treeState, l int) error {
	if st.m[l].inU() && st.verts[l] != st.tree.Root && !st.m[l].dfsDone {
		return fmt.Errorf("treeroute: portal %d of tree %d has no shift seed", st.verts[l], st.idx)
	}
	return nil
}

// noRange: every non-portal ends with a DFS range.
func noRange(st *treeState, l int) error {
	if !st.m[l].haveIn && !st.m[l].inU() {
		return fmt.Errorf("treeroute: tree %d vertex %d never received a DFS range", st.idx, st.verts[l])
	}
	return nil
}

// phaseLocalRoots implements the first flood of Section 3.1: every portal
// announces itself down its local tree; portal children in the virtual tree
// T' learn their virtual parent p'(x).
func (b *distBuilder) phaseLocalRoots() error {
	return b.runPhase("local-roots", b.schedule(isPortal), func(v int, ctx *congest.Ctx) {
		for _, e := range b.due(v, ctx) {
			st, l := b.ts[e.tree], int(e.local)
			st.m[l].localRoot = int32(v)
			ctx.Mem().Charge(1)
			for _, c := range st.tree.ChildrenAt(l) {
				ctx.Send(c, congest.Payload{Kind: kindRoot, W0: congest.IntWord(st.idx), W1: congest.IntWord(v)}, pRootWords)
			}
		}
		in := ctx.In()
		for i := range in {
			m := &in[i]
			p := &m.Payload
			if p.Kind != kindRoot {
				continue
			}
			st := b.ts[congest.WordInt(p.W0)]
			l := b.local(st, v)
			// Each vertex receives exactly one kindRoot per tree; a second
			// receipt is a faulty re-delivery and must not re-charge or
			// re-flood.
			if px := st.m[l].portal; px >= 0 {
				if st.virtParent[px] != graph.NoVertex {
					continue
				}
				st.virtParent[px] = int32(congest.WordInt(p.W1))
				ctx.Mem().Charge(1)
				continue
			}
			if st.m[l].localRoot != graph.NoVertex {
				continue
			}
			st.m[l].localRoot = int32(congest.WordInt(p.W1))
			ctx.Mem().Charge(1)
			for _, c := range st.tree.ChildrenAt(l) {
				ctx.Send(c, *p, pRootWords)
			}
		}
	}, nil)
}

// phaseLocalSizes implements the local convergecast of Section 3.1: each
// vertex reports the size of its subtree within its local tree; portal
// children report 0 (their subtrees belong to their own local trees).
func (b *distBuilder) phaseLocalSizes() error {
	b.resetConvergecast()
	complete := func(st *treeState, v, l int, ctx *congest.Ctx) {
		if px := st.m[l].portal; px >= 0 {
			st.pjS[px] = st.m[l].acc // s_0(x) = |T_x|
			ctx.Mem().Charge(1)
			if v != st.tree.Root {
				// Portal children report size 0 explicitly; receivers decode
				// W1 unconditionally.
				ctx.Send(st.tree.ParentAt(l), congest.Payload{Kind: kindSize, W0: congest.IntWord(st.idx), W1: congest.IntWord(0)}, pSizeWords)
			}
			return
		}
		ctx.Send(st.tree.ParentAt(l), congest.Payload{Kind: kindSize, W0: congest.IntWord(st.idx), W1: congest.IntWord(int(st.m[l].acc))}, pSizeWords)
	}
	return b.runPhase("local-sizes", b.schedule(isLeaf), func(v int, ctx *congest.Ctx) {
		for _, e := range b.due(v, ctx) {
			complete(b.ts[e.tree], v, int(e.local), ctx)
		}
		in := ctx.In()
		for i := range in {
			m := &in[i]
			p := &m.Payload
			if p.Kind != kindSize {
				continue
			}
			st := b.ts[congest.WordInt(p.W0)]
			l := b.local(st, v)
			// The pending countdown tolerates exactly one report per child;
			// drop faulty re-deliveries.
			if st.dupSize(l, m.From) {
				continue
			}
			st.m[l].acc += int32(congest.WordInt(p.W1))
			st.m[l].pending--
			if st.m[l].pending == 0 {
				complete(st, v, l, ctx)
			}
		}
	}, nil)
}

// phaseGlobalSizes is Algorithm 1: pointer jumping over broadcasts computes
// every portal's global subtree size s_x and its 2^i-ancestor table.
func (b *distBuilder) phaseGlobalSizes() {
	rows := slab[int32]{make([]int32, len(b.jumpHead)*(b.iters+1))} // a row per portal
	for _, st := range b.ts {
		for px, l := range st.portalAt {
			st.pjA[px] = st.virtParent[px] // a_0(x) = p'(x)
			st.anc[px] = rows.take(b.iters + 1)
			st.anc[px][0] = st.pjA[px]
			b.sim.Mem(st.verts[l]).Charge(int64(b.iters) + 1)
		}
	}
	for i := 0; i < b.iters; i++ {
		b.msgs = b.msgs[:0]
		for j := range b.jumpHead {
			b.jumpHead[j] = -1
		}
		for _, st := range b.ts {
			for px, l := range st.portalAt {
				v := st.verts[l]
				j := st.pbase + px
				b.jumpA[j] = st.pjA[px]
				b.jumpS[j] = 0
				b.msgs = append(b.msgs, congest.BroadcastMsg{
					Origin: v,
					Payload: congest.Payload{
						Kind: kindBSize,
						W0:   congest.IntWord(st.idx),
						W1:   congest.IntWord(v),
						W2:   congest.IntWord(int(st.pjA[px])),
						W3:   congest.IntWord(int(st.pjS[px])),
					},
					Words: bSizeWords,
				})
				// Every receiver v sums the messages whose a_i(w) is v;
				// chaining each message onto its target's list lets v read
				// exactly those instead of testing all of them.
				b.jumpNext[j] = -1
				if pa := b.portalSlot(st, int(st.pjA[px])); pa >= 0 {
					b.jumpNext[j], b.jumpHead[st.pbase+pa] = b.jumpHead[st.pbase+pa], int32(j)
				}
			}
		}
		b.sim.Broadcast(b.msgs, func(v int, d *congest.Delivery) {
			for _, e := range b.memb(v) {
				st := b.ts[e.tree]
				px := st.m[e.local].portal
				if px < 0 {
					continue
				}
				own := st.pbase + int(px)
				for j := b.jumpHead[own]; j >= 0; j = b.jumpNext[j] {
					m := d.At(int(j))
					if m == nil {
						continue
					}
					p := &m.Payload
					if p.Kind != kindBSize {
						continue
					}
					if congest.WordInt(p.W0) != st.idx || congest.WordInt(p.W2) != v {
						continue
					}
					b.jumpS[own] += int32(congest.WordInt(p.W3)) // w with a_i(w) = v contributes s_i(w)
				}
				m := b.portalMsg(d, st, int(st.pjA[px]))
				if m == nil {
					continue
				}
				p := &m.Payload
				if p.Kind != kindBSize {
					continue
				}
				if isFrom(p, st, int(st.pjA[px])) {
					b.jumpA[own] = int32(congest.WordInt(p.W2)) // a_{i+1}(v) = a_i(a_i(v))
				}
			}
		})
		for _, st := range b.ts {
			for px := range st.portalAt {
				st.pjA[px] = b.jumpA[st.pbase+px]
				st.pjS[px] += b.jumpS[st.pbase+px]
				st.anc[px][i+1] = st.pjA[px]
			}
		}
	}
	for _, st := range b.ts {
		for px, l := range st.portalAt {
			st.m[l].size = st.pjS[px]
			b.sim.Mem(st.verts[l]).Charge(1)
		}
	}
}

// phaseSizesDown completes Stage 1: portals push their (now global) sizes to
// their tree parents, local convergecasts recompute every vertex's global
// subtree size, and every vertex learns its heavy child on the fly.
func (b *distBuilder) phaseSizesDown() error {
	b.resetConvergecast()
	complete := func(st *treeState, v, l int, ctx *congest.Ctx) {
		if st.m[l].inU() {
			return // the portal announced its size at kickoff already
		}
		st.m[l].size = st.m[l].acc
		ctx.Mem().Charge(1)
		ctx.Send(st.tree.ParentAt(l), congest.Payload{Kind: kindSize, W0: congest.IntWord(st.idx), W1: congest.IntWord(int(st.m[l].acc))}, pSizeWords)
	}
	return b.runPhase("sizes-down", b.schedule(reportsSize), func(v int, ctx *congest.Ctx) {
		for _, e := range b.due(v, ctx) {
			st, l := b.ts[e.tree], int(e.local)
			if st.m[l].inU() && v != st.tree.Root {
				ctx.Send(st.tree.ParentAt(l), congest.Payload{Kind: kindSize, W0: congest.IntWord(st.idx), W1: congest.IntWord(int(st.m[l].size))}, pSizeWords)
			}
			if st.m[l].pending == 0 {
				complete(st, v, l, ctx)
			}
		}
		in := ctx.In()
		for i := range in {
			m := &in[i]
			p := &m.Payload
			if p.Kind != kindSize {
				continue
			}
			st := b.ts[congest.WordInt(p.W0)]
			l := b.local(st, v)
			if st.dupSize(l, m.From) {
				continue
			}
			size := int32(congest.WordInt(p.W1))
			// Tie-break toward the smaller child id so the choice is
			// independent of report arrival order (and matches the
			// centralized reference).
			if size > st.m[l].heavyBest ||
				(size == st.m[l].heavyBest && m.From < int(st.m[l].heavy)) {
				st.m[l].heavyBest = size
				st.m[l].heavy = int32(m.From)
				ctx.Mem().Charge(1)
			}
			st.m[l].acc += size
			st.m[l].pending--
			if st.m[l].pending == 0 {
				complete(st, v, l, ctx)
			}
		}
	}, sizeMismatch)
}

// phaseLocalLight is Algorithm 2: flood light-edge lists down each local
// tree; portal children keep the received list as L_0 for Algorithm 3.
func (b *distBuilder) phaseLocalLight() error {
	forward := func(st *treeState, l int, list []LightEdge, ctx *congest.Ctx) {
		// One encode serves every child: Send copies the body per message.
		body := ctx.Scratch(lightWords(list))
		encodeLight(body, list)
		for _, c := range st.tree.ChildrenAt(l) {
			ctx.Send(c, congest.Payload{
				Kind: kindLight,
				W0:   congest.IntWord(st.idx),
				W1:   congest.BoolWord(c != int(st.m[l].heavy)),
				W2:   congest.IntWord(len(list)),
			}, 3+lightWords(list), body...)
		}
	}
	b.resetLightSeen()
	return b.runPhase("local-light", b.schedule(isPortal), func(v int, ctx *congest.Ctx) {
		for _, e := range b.due(v, ctx) {
			st, l := b.ts[e.tree], int(e.local)
			st.lightLocal[l] = []LightEdge{}
			if v == st.tree.Root {
				st.lightGlobal[st.m[l].portal] = []LightEdge{}
			}
			forward(st, l, nil, ctx)
		}
		in := ctx.In()
		for i := range in {
			m := &in[i]
			p := &m.Payload
			if p.Kind != kindLight {
				continue
			}
			st := b.ts[congest.WordInt(p.W0)]
			l := b.local(st, v)
			if st.dupLight(l) {
				continue
			}
			light := congest.WordBool(p.W1)
			k := congest.WordInt(p.W2)
			// Decode the body into a fresh list (empty non-light lists stay
			// nil, matching the centralized reference's representation).
			var list []LightEdge
			if k > 0 || light {
				body := ctx.Body(m, ctx.Scratch(0))
				list = make([]LightEdge, 0, k+1)
				for j := 0; j < 2*k; j += 2 {
					list = append(list, LightEdge{Parent: congest.WordInt(body[j]), Child: congest.WordInt(body[j+1])})
				}
				if light {
					list = append(list, LightEdge{Parent: m.From, Child: v})
				}
			}
			if px := st.m[l].portal; px >= 0 {
				st.lightGlobal[px] = list // L_0(v): lights from p'(v) to v
				ctx.Mem().Charge(int64(lightWords(list)))
				continue
			}
			st.lightLocal[l] = list
			ctx.Mem().Charge(int64(lightWords(list)))
			forward(st, l, list, ctx)
		}
	}, nil)
}

// phaseGlobalLight is Algorithm 3: pointer jumping assembles, for every
// portal, the light edges on its full root path.
func (b *distBuilder) phaseGlobalLight() {
	for i := 0; i < b.iters; i++ {
		b.msgs = b.msgs[:0]
		for _, st := range b.ts {
			for px, l := range st.portalAt {
				v := st.verts[l]
				j := st.pbase + px
				b.jumpW[j] = nil
				b.jumpGot[j] = false
				list := st.lightGlobal[px]
				body := b.bodies.Get(j, lightWords(list))
				encodeLight(body, list)
				b.msgs = append(b.msgs, congest.BroadcastMsg{
					Origin: v,
					Payload: congest.Payload{
						Kind: kindBLight,
						W0:   congest.IntWord(st.idx),
						W1:   congest.IntWord(v),
						W2:   congest.IntWord(len(list)),
					},
					Words: 3 + lightWords(list),
					Body:  body,
				})
			}
		}
		// The handler only records the received body (caller-owned, valid
		// until the next iteration's encode); the merge (which allocates and
		// changes the vertex's stored state) happens in the commit loop
		// below, where the growth is charged to the meter.
		b.sim.Broadcast(b.msgs, func(v int, d *congest.Delivery) {
			for _, e := range b.memb(v) {
				st := b.ts[e.tree]
				px := st.m[e.local].portal
				if px < 0 {
					continue
				}
				m := b.portalMsg(d, st, int(st.anc[px][i]))
				if m == nil {
					continue
				}
				p := &m.Payload
				if p.Kind != kindBLight {
					continue
				}
				if !isFrom(p, st, int(st.anc[px][i])) {
					continue
				}
				k := congest.WordInt(p.W2)
				b.jumpW[st.pbase+int(px)] = m.Body[:2*k] // L_i(a_i(v)), 2*k == len(m.Body)
				b.jumpGot[st.pbase+int(px)] = true
			}
		})
		for _, st := range b.ts {
			for px, l := range st.portalAt {
				if !b.jumpGot[st.pbase+px] {
					continue
				}
				// L_{i+1}(v) = L_i(a_i(v)) ++ L_i(v)
				w := b.jumpW[st.pbase+px]
				merged := make([]LightEdge, 0, len(w)/2+len(st.lightGlobal[px]))
				for j := 0; j+1 < len(w); j += 2 {
					merged = append(merged, LightEdge{Parent: congest.WordInt(w[j]), Child: congest.WordInt(w[j+1])})
				}
				merged = append(merged, st.lightGlobal[px]...)
				grow := lightWords(merged) - lightWords(st.lightGlobal[px])
				st.lightGlobal[px] = merged
				b.sim.Mem(st.verts[l]).Charge(int64(grow))
			}
		}
	}
}

// phaseLightDown completes Stage 2: each portal floods its global light list
// down its local tree; every vertex's final list is the portal's global list
// followed by its own local list.
func (b *distBuilder) phaseLightDown() error {
	b.resetLightSeen()
	return b.runPhase("light-down", b.schedule(isPortal), func(v int, ctx *congest.Ctx) {
		for _, e := range b.due(v, ctx) {
			st, l := b.ts[e.tree], int(e.local)
			list := st.lightGlobal[st.m[l].portal]
			st.fullLight[l] = list
			body := ctx.Scratch(lightWords(list))
			encodeLight(body, list)
			for _, c := range st.tree.ChildrenAt(l) {
				ctx.Send(c, congest.Payload{
					Kind: kindGLight,
					W0:   congest.IntWord(st.idx),
					W1:   congest.IntWord(len(list)),
				}, 2+lightWords(list), body...)
			}
		}
		in := ctx.In()
		for i := range in {
			m := &in[i]
			p := &m.Payload
			if p.Kind != kindGLight {
				continue
			}
			st := b.ts[congest.WordInt(p.W0)]
			l := b.local(st, v)
			if st.m[l].inU() || st.dupLight(l) {
				continue
			}
			k := congest.WordInt(p.W1)
			body := ctx.Body(m, ctx.Scratch(0))
			full := make([]LightEdge, 0, k+len(st.lightLocal[l]))
			for j := 0; j < 2*k; j += 2 {
				full = append(full, LightEdge{Parent: congest.WordInt(body[j]), Child: congest.WordInt(body[j+1])})
			}
			full = append(full, st.lightLocal[l]...)
			st.fullLight[l] = full
			ctx.Mem().Charge(int64(2 * k))
			for _, c := range st.tree.ChildrenAt(l) {
				ctx.Send(c, *p, 2+2*k, body...)
			}
		}
	}, nil)
}

// phaseLocalDFS implements Algorithms 4 and 5 event-driven: parents hand
// each child its sibling index, children exchange prefix sums of subtree
// sizes through their parent in a binary-doubling pattern (the parent only
// relays, storing nothing), and DFS range starts flow down each local tree.
// Portals record the range start assigned by the enclosing frame as their
// shift seed q_x.
func (b *distBuilder) phaseLocalDFS() error {
	maybeSendAdd := func(st *treeState, l int, ctx *congest.Ctx) {
		if st.m[l].sentAdd || st.m[l].sibIdx == 0 {
			return
		}
		tz := bits.TrailingZeros(uint(st.m[l].sibIdx))
		lowMask := int32(1)<<tz - 1
		if st.m[l].addMask&lowMask != lowMask {
			return
		}
		st.m[l].sentAdd = true
		ctx.Send(st.tree.ParentAt(l), congest.Payload{
			Kind: kindAdd,
			W0:   congest.IntWord(st.idx),
			W1:   congest.IntWord(int(st.m[l].sibIdx)),
			W2:   congest.IntWord(int(st.m[l].size + st.m[l].lowSum)),
		}, pAddWords)
	}
	maybeComplete := func(st *treeState, l int, ctx *congest.Ctx) {
		if st.m[l].dfsDone {
			return
		}
		if st.m[l].sibIdx == 0 || !st.m[l].haveQ || st.m[l].addMask != st.m[l].sibIdx-1 {
			return
		}
		st.m[l].dfsDone = true
		// Prefix S(y_j) = own size + all sibling adds; our range starts at
		// a + 1 + (S - size) where a is the parent's range start.
		start := st.m[l].qShift + 1 + st.m[l].lowSum + st.m[l].highSum
		if st.m[l].inU() {
			st.m[l].qShift = start - 1 // q_x for Algorithm 6
			return
		}
		st.m[l].localIn = start
		st.m[l].haveIn = true
		ctx.Mem().Charge(2)
		for _, c := range st.tree.ChildrenAt(l) {
			ctx.Send(c, congest.Payload{Kind: kindRange, W0: congest.IntWord(st.idx), W1: congest.IntWord(int(start))}, pRangeWords)
		}
	}
	return b.runPhase("local-dfs", b.schedule(opensFrame), func(v int, ctx *congest.Ctx) {
		for _, e := range b.due(v, ctx) {
			st, l := b.ts[e.tree], int(e.local)
			for i, c := range st.tree.ChildrenAt(l) {
				ctx.Send(c, congest.Payload{Kind: kindIdx, W0: congest.IntWord(st.idx), W1: congest.IntWord(i + 1)}, pIdxWords)
			}
			if st.m[l].inU() {
				st.m[l].localIn = 1
				st.m[l].haveIn = true
				ctx.Mem().Charge(2)
				if v == st.tree.Root {
					st.m[l].haveQ = true // q_z = 0
				}
				for _, c := range st.tree.ChildrenAt(l) {
					ctx.Send(c, congest.Payload{Kind: kindRange, W0: congest.IntWord(st.idx), W1: congest.IntWord(1)}, pRangeWords)
				}
			}
		}
		in := ctx.In()
		for i := range in {
			m := &in[i]
			p := &m.Payload
			switch p.Kind {
			case kindIdx:
				st := b.ts[congest.WordInt(p.W0)]
				l := b.local(st, v)
				// Sibling indices are 1-based, so a non-zero sibIdx means
				// this is a faulty re-delivery.
				if st.m[l].sibIdx != 0 {
					continue
				}
				st.m[l].sibIdx = int32(congest.WordInt(p.W1))
				ctx.Mem().Charge(1)
				maybeSendAdd(st, l, ctx)
				maybeComplete(st, l, ctx)
			case kindAdd:
				// Pure relay (Algorithm 5's parent role): forward the add to
				// the 2^i siblings following the sender, storing nothing.
				st := b.ts[congest.WordInt(p.W0)]
				idx := congest.WordInt(p.W1)
				i := bits.TrailingZeros(uint(idx))
				children := st.tree.Children(v)
				for tgt := idx + 1; tgt <= idx+(1<<i) && tgt <= len(children); tgt++ {
					ctx.Send(children[tgt-1], congest.Payload{
						Kind: kindFwd,
						W0:   p.W0,
						W1:   congest.IntWord(i),
						W2:   p.W2,
					}, pFwdWords)
				}
			case kindFwd:
				st := b.ts[congest.WordInt(p.W0)]
				l := b.local(st, v)
				if st.m[l].sibIdx == 0 {
					// Per-edge FIFO delivery puts kindIdx first even under
					// faults, unless the index was lost outright (exhausted
					// retry budget); then the phase fails to converge and the
					// add is moot.
					if b.sim.FaultsEnabled() {
						continue
					}
					panic(fmt.Sprintf("treeroute: vertex %d got prefix add before its index (tree %d)", v, congest.WordInt(p.W0)))
				}
				iter := congest.WordInt(p.W1)
				// One add arrives per iteration; a set mask bit means a
				// faulty re-delivery (directly, or relayed by a duplicated
				// kindAdd).
				if st.m[l].addMask&(1<<iter) != 0 {
					continue
				}
				tz := bits.TrailingZeros(uint(st.m[l].sibIdx))
				if iter < tz {
					st.m[l].lowSum += int32(congest.WordInt(p.W2))
				} else {
					st.m[l].highSum += int32(congest.WordInt(p.W2))
				}
				st.m[l].addMask |= 1 << iter
				maybeSendAdd(st, l, ctx)
				maybeComplete(st, l, ctx)
			case kindRange:
				st := b.ts[congest.WordInt(p.W0)]
				l := b.local(st, v)
				if st.m[l].haveQ {
					continue // faulty re-delivery; one range per vertex
				}
				st.m[l].qShift = int32(congest.WordInt(p.W1))
				st.m[l].haveQ = true
				ctx.Mem().Charge(1)
				maybeComplete(st, l, ctx)
			}
		}
	}, noShiftSeed)
}

// phaseGlobalShifts is Algorithm 6: pointer jumping accumulates, for every
// portal, the total DFS shift induced by its portal ancestors.
func (b *distBuilder) phaseGlobalShifts() {
	for _, st := range b.ts {
		for px, l := range st.portalAt {
			v := st.verts[l]
			st.shift[px] = st.m[l].qShift
			if v == st.tree.Root {
				st.shift[px] = 0
			}
			b.sim.Mem(v).Charge(1)
		}
	}
	for i := 0; i < b.iters; i++ {
		b.msgs = b.msgs[:0]
		for _, st := range b.ts {
			for px, l := range st.portalAt {
				v := st.verts[l]
				b.jumpQ[st.pbase+px] = 0
				b.msgs = append(b.msgs, congest.BroadcastMsg{
					Origin: v,
					Payload: congest.Payload{
						Kind: kindBShift,
						W0:   congest.IntWord(st.idx),
						W1:   congest.IntWord(v),
						W2:   congest.IntWord(int(st.shift[px])),
					},
					Words: bShiftWords,
				})
			}
		}
		b.sim.Broadcast(b.msgs, func(v int, d *congest.Delivery) {
			for _, e := range b.memb(v) {
				st := b.ts[e.tree]
				px := st.m[e.local].portal
				if px < 0 {
					continue
				}
				m := b.portalMsg(d, st, int(st.anc[px][i]))
				if m == nil {
					continue
				}
				p := &m.Payload
				if p.Kind != kindBShift {
					continue
				}
				if !isFrom(p, st, int(st.anc[px][i])) {
					continue
				}
				b.jumpQ[st.pbase+int(px)] = int32(congest.WordInt(p.W2)) // q_i(a_i(v))
			}
		})
		for _, st := range b.ts {
			for px := range st.portalAt {
				st.shift[px] += b.jumpQ[st.pbase+px]
			}
		}
	}
}

// finalizeShift records a vertex's final DFS interval from its local entry
// time plus the accumulated portal shift.
func (b *distBuilder) finalizeShift(st *treeState, l int, shift int32, ctx *congest.Ctx) {
	st.m[l].finalIn = st.m[l].localIn + shift
	st.m[l].finalOut = st.m[l].finalIn + st.m[l].size - 1
	ctx.Mem().Charge(2)
}

// stepShiftsDown is the per-vertex program of the shifts-down flood. It is a
// named method (not a per-phase closure) so a warm flood re-run allocates
// nothing - the steady-state alloc test pins that.
func (b *distBuilder) stepShiftsDown(v int, ctx *congest.Ctx) {
	for _, e := range b.due(v, ctx) {
		st, l := b.ts[e.tree], int(e.local)
		shift := st.shift[st.m[l].portal]
		b.finalizeShift(st, l, shift, ctx)
		for _, c := range st.tree.ChildrenAt(l) {
			ctx.Send(c, congest.Payload{Kind: kindShift, W0: congest.IntWord(st.idx), W1: congest.IntWord(int(shift))}, pShiftWords)
		}
	}
	in := ctx.In()
	for i := range in {
		m := &in[i]
		p := &m.Payload
		if p.Kind != kindShift {
			continue
		}
		st := b.ts[congest.WordInt(p.W0)]
		l := b.local(st, v)
		// finalIn is at least 1 once set (localIn >= 1, shift >= 0), so a
		// non-zero value marks a faulty re-delivery of the shift flood.
		if st.m[l].inU() || st.m[l].finalIn != 0 {
			continue
		}
		b.finalizeShift(st, l, int32(congest.WordInt(p.W1)), ctx)
		for _, c := range st.tree.ChildrenAt(l) {
			ctx.Send(c, *p, pShiftWords)
		}
	}
}

// phaseShiftsDown completes Stage 3: each portal floods its accumulated
// shift down its local tree and every vertex finalises its DFS interval.
func (b *distBuilder) phaseShiftsDown() error {
	return b.runPhase("shifts-down", b.schedule(isPortal), b.stepShiftsDown, noRange)
}
