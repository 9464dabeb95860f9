package treeroute

import (
	"fmt"
	"math/bits"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

// Message kinds. Every payload carries its tree index t in W0; word counts
// include it (a tree id is an identity, one word in the CONGEST RAM model).
// Light-edge lists travel in the variable-length tail as (Parent, Child)
// word pairs, preceded by an inline length word.
const (
	kindRoot   congest.PayloadKind = iota + 1 // phase A: local-tree flood (W1=root)
	kindSize                                  // phases B and D: convergecasts (W1=size)
	kindLight                                 // phase E: local light lists (W1=light, W2=len, Ext=pairs)
	kindGLight                                // phase G: global light flood (W1=len, Ext=pairs)
	kindIdx                                   // phase H: sibling index (W1=idx)
	kindAdd                                   // phase H: prefix add, child->parent (W1=idx, W2=val)
	kindFwd                                   // phase H: prefix add, parent->targets (W1=iter, W2=val)
	kindRange                                 // phase H: parent's DFS range start (W1=a)
	kindShift                                 // phase J: final shift flood (W1=shift)
	kindBSize                                 // Algorithm 1 broadcast (W1=x, W2=a, W3=s)
	kindBLight                                // Algorithm 3 broadcast (W1=x, W2=len, Ext=pairs)
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

// phaseLocalRoots implements the first flood of Section 3.1: every portal
// announces itself down its local tree; portal children in the virtual tree
// T' learn their virtual parent p'(x).
func (b *distBuilder) phaseLocalRoots() error {
	initial := b.union(func(st *treeState, l int) bool { return st.inU[l] })
	return b.runPhase("local-roots", initial, func(v int, ctx *congest.Ctx) {
		for _, e := range b.memb(v) {
			st, l := b.ts[e.tree], int(e.local)
			if st.inU[l] && kickoff(st, ctx) {
				st.localRoot[l] = v
				ctx.Mem().Charge(1)
				for _, c := range st.tree.ChildrenAt(l) {
					ctx.Send(c, congest.Payload{Kind: kindRoot, W0: congest.IntWord(st.idx), W1: congest.IntWord(v)}, pRootWords)
				}
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
			if st.inU[l] {
				if st.virtParent[l] != graph.NoVertex {
					continue
				}
				st.virtParent[l] = congest.WordInt(p.W1)
				ctx.Mem().Charge(1)
				continue
			}
			if st.localRoot[l] != graph.NoVertex {
				continue
			}
			st.localRoot[l] = congest.WordInt(p.W1)
			ctx.Mem().Charge(1)
			for _, c := range st.tree.ChildrenAt(l) {
				ctx.Send(c, *p, pRootWords)
			}
		}
	})
}

// phaseLocalSizes implements the local convergecast of Section 3.1: each
// vertex reports the size of its subtree within its local tree; portal
// children report 0 (their subtrees belong to their own local trees).
func (b *distBuilder) phaseLocalSizes() error {
	for _, st := range b.ts {
		for l := range st.verts {
			st.pending[l] = len(st.tree.ChildrenAt(l))
			st.acc[l] = 1
		}
		if b.sim.FaultsEnabled() {
			st.resetSizeSeen()
		}
	}
	complete := func(st *treeState, v, l int, ctx *congest.Ctx) {
		if st.inU[l] {
			st.pjS[l] = st.acc[l] // s_0(x) = |T_x|
			ctx.Mem().Charge(1)
			if v != st.tree.Root {
				// Portal children report size 0 explicitly; receivers decode
				// W1 unconditionally.
				ctx.Send(st.tree.ParentAt(l), congest.Payload{Kind: kindSize, W0: congest.IntWord(st.idx), W1: congest.IntWord(0)}, pSizeWords)
			}
			return
		}
		ctx.Send(st.tree.ParentAt(l), congest.Payload{Kind: kindSize, W0: congest.IntWord(st.idx), W1: congest.IntWord(st.acc[l])}, pSizeWords)
	}
	initial := b.union(func(st *treeState, l int) bool { return st.pending[l] == 0 })
	return b.runPhase("local-sizes", initial, func(v int, ctx *congest.Ctx) {
		for _, e := range b.memb(v) {
			st, l := b.ts[e.tree], int(e.local)
			if st.pending[l] == 0 && !st.kicked[l] && kickoff(st, ctx) {
				st.kicked[l] = true
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
			// The pending countdown tolerates exactly one report per child;
			// drop faulty re-deliveries.
			if st.dupSize(l, m.From) {
				continue
			}
			st.acc[l] += congest.WordInt(p.W1)
			st.pending[l]--
			if st.pending[l] == 0 {
				complete(st, v, l, ctx)
			}
		}
	})
}

// phaseGlobalSizes is Algorithm 1: pointer jumping over broadcasts computes
// every portal's global subtree size s_x and its 2^i-ancestor table.
func (b *distBuilder) phaseGlobalSizes() {
	for _, st := range b.ts {
		st.tmpA = make([]int, len(st.verts))
		st.tmpS = make([]int, len(st.verts))
		for l, v := range st.verts {
			if st.inU[l] {
				st.pjA[l] = st.virtParent[l] // a_0(x) = p'(x)
				st.anc[l] = make([]int, b.iters+1)
				st.anc[l][0] = st.pjA[l]
				b.sim.Mem(v).Charge(int64(b.iters) + 1)
			}
		}
	}
	for i := 0; i < b.iters; i++ {
		b.msgs = b.msgs[:0]
		for _, st := range b.ts {
			for l, v := range st.verts {
				if st.inU[l] {
					st.tmpA[l] = st.pjA[l]
					st.tmpS[l] = 0
					b.msgs = append(b.msgs, congest.BroadcastMsg{
						Origin: v,
						Payload: congest.Payload{
							Kind: kindBSize,
							W0:   congest.IntWord(st.idx),
							W1:   congest.IntWord(v),
							W2:   congest.IntWord(st.pjA[l]),
							W3:   congest.IntWord(st.pjS[l]),
						},
						Words: bSizeWords,
					})
				}
			}
		}
		b.sim.Broadcast(b.msgs, func(v int, m *congest.BroadcastMsg) {
			p := &m.Payload
			if p.Kind != kindBSize {
				return
			}
			st := b.ts[congest.WordInt(p.W0)]
			l := b.local(st, v)
			if l < 0 || !st.inU[l] {
				return
			}
			x, a := congest.WordInt(p.W1), congest.WordInt(p.W2)
			if st.pjA[l] == x {
				st.tmpA[l] = a // a_{i+1}(v) = a_i(a_i(v))
			}
			if a == v {
				st.tmpS[l] += congest.WordInt(p.W3) // w with a_i(w) = v contributes s_i(w)
			}
		})
		for _, st := range b.ts {
			for l := range st.verts {
				if st.inU[l] {
					st.pjA[l] = st.tmpA[l]
					st.pjS[l] += st.tmpS[l]
					st.anc[l][i+1] = st.pjA[l]
				}
			}
		}
	}
	for _, st := range b.ts {
		for l, v := range st.verts {
			if st.inU[l] {
				st.size[l] = st.pjS[l]
				b.sim.Mem(v).Charge(1)
			}
		}
	}
}

// phaseSizesDown completes Stage 1: portals push their (now global) sizes to
// their tree parents, local convergecasts recompute every vertex's global
// subtree size, and every vertex learns its heavy child on the fly.
func (b *distBuilder) phaseSizesDown() error {
	for _, st := range b.ts {
		for l := range st.verts {
			st.pending[l] = len(st.tree.ChildrenAt(l))
			st.acc[l] = 1
			st.kicked[l] = false
		}
		if b.sim.FaultsEnabled() {
			st.resetSizeSeen()
		}
	}
	complete := func(st *treeState, v, l int, ctx *congest.Ctx) {
		if st.inU[l] {
			// Sanity: the convergecast must agree with Algorithm 1.
			if st.acc[l] != st.size[l] {
				panic(fmt.Sprintf("treeroute: tree %d portal %d: convergecast size %d != pointer-jump size %d",
					st.idx, v, st.acc[l], st.size[l]))
			}
			return // the portal announced its size at kickoff already
		}
		st.size[l] = st.acc[l]
		ctx.Mem().Charge(1)
		ctx.Send(st.tree.ParentAt(l), congest.Payload{Kind: kindSize, W0: congest.IntWord(st.idx), W1: congest.IntWord(st.acc[l])}, pSizeWords)
	}
	kick := func(st *treeState, l int) bool {
		return (st.inU[l] && st.verts[l] != st.tree.Root) || st.pending[l] == 0
	}
	initial := b.union(kick)
	return b.runPhase("sizes-down", initial, func(v int, ctx *congest.Ctx) {
		for _, e := range b.memb(v) {
			st, l := b.ts[e.tree], int(e.local)
			if !kick(st, l) || st.kicked[l] || !kickoff(st, ctx) {
				continue
			}
			st.kicked[l] = true
			if st.inU[l] && v != st.tree.Root {
				ctx.Send(st.tree.ParentAt(l), congest.Payload{Kind: kindSize, W0: congest.IntWord(st.idx), W1: congest.IntWord(st.size[l])}, pSizeWords)
			}
			if st.pending[l] == 0 {
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
			size := congest.WordInt(p.W1)
			// Tie-break toward the smaller child id so the choice is
			// independent of report arrival order (and matches the
			// centralized reference).
			if size > st.heavyBest[l] ||
				(size == st.heavyBest[l] && m.From < st.heavy[l]) {
				st.heavyBest[l] = size
				st.heavy[l] = m.From
				ctx.Mem().Charge(1)
			}
			st.acc[l] += size
			st.pending[l]--
			if st.pending[l] == 0 {
				complete(st, v, l, ctx)
			}
		}
	})
}

// phaseLocalLight is Algorithm 2: flood light-edge lists down each local
// tree; portal children keep the received list as L_0 for Algorithm 3.
func (b *distBuilder) phaseLocalLight() error {
	forward := func(st *treeState, l int, list []LightEdge, ctx *congest.Ctx) {
		// One encode serves every child: Send clones the tail per message.
		ext := ctx.Ext(lightWords(list))
		encodeLight(ext, list)
		for _, c := range st.tree.ChildrenAt(l) {
			ctx.Send(c, congest.Payload{
				Kind: kindLight,
				W0:   congest.IntWord(st.idx),
				W1:   congest.BoolWord(c != st.heavy[l]),
				W2:   congest.IntWord(len(list)),
				Ext:  ext,
			}, 3+lightWords(list))
		}
	}
	if b.sim.FaultsEnabled() {
		for _, st := range b.ts {
			st.resetLightSeen()
		}
	}
	initial := b.union(func(st *treeState, l int) bool { return st.inU[l] })
	return b.runPhase("local-light", initial, func(v int, ctx *congest.Ctx) {
		for _, e := range b.memb(v) {
			st, l := b.ts[e.tree], int(e.local)
			if st.inU[l] && kickoff(st, ctx) {
				st.lightLocal[l] = []LightEdge{}
				if v == st.tree.Root {
					st.lightGlobal[l] = []LightEdge{}
				}
				forward(st, l, nil, ctx)
			}
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
			// The received tail is engine-owned; decode into a fresh list
			// (empty non-light lists stay nil, matching the centralized
			// reference's representation).
			var list []LightEdge
			if k > 0 || light {
				list = make([]LightEdge, 0, k+1)
				for j := 0; j < 2*k; j += 2 {
					list = append(list, LightEdge{Parent: congest.WordInt(p.Ext[j]), Child: congest.WordInt(p.Ext[j+1])})
				}
				if light {
					list = append(list, LightEdge{Parent: m.From, Child: v})
				}
			}
			if st.inU[l] {
				st.lightGlobal[l] = list // L_0(v): lights from p'(v) to v
				ctx.Mem().Charge(int64(lightWords(list)))
				continue
			}
			st.lightLocal[l] = list
			ctx.Mem().Charge(int64(lightWords(list)))
			forward(st, l, list, ctx)
		}
	})
}

// phaseGlobalLight is Algorithm 3: pointer jumping assembles, for every
// portal, the light edges on its full root path.
func (b *distBuilder) phaseGlobalLight() {
	for _, st := range b.ts {
		st.tmpW = make([][]uint64, len(st.verts))
		st.tmpGot = make([]bool, len(st.verts))
	}
	for i := 0; i < b.iters; i++ {
		b.msgs = b.msgs[:0]
		for _, st := range b.ts {
			for l, v := range st.verts {
				if st.inU[l] {
					st.tmpW[l] = nil
					st.tmpGot[l] = false
					list := st.lightGlobal[l]
					ext := b.extBuf(len(b.msgs), lightWords(list))
					encodeLight(ext, list)
					b.msgs = append(b.msgs, congest.BroadcastMsg{
						Origin: v,
						Payload: congest.Payload{
							Kind: kindBLight,
							W0:   congest.IntWord(st.idx),
							W1:   congest.IntWord(v),
							W2:   congest.IntWord(len(list)),
							Ext:  ext,
						},
						Words: 3 + lightWords(list),
					})
				}
			}
		}
		// The handler only records the received tail (caller-owned, valid
		// until the next iteration's encode); the merge (which allocates and
		// changes the vertex's stored state) happens in the commit loop
		// below, where the growth is charged to the meter.
		b.sim.Broadcast(b.msgs, func(v int, m *congest.BroadcastMsg) {
			p := &m.Payload
			if p.Kind != kindBLight {
				return
			}
			st := b.ts[congest.WordInt(p.W0)]
			l := b.local(st, v)
			if l < 0 || !st.inU[l] || st.anc[l][i] != congest.WordInt(p.W1) {
				return
			}
			k := congest.WordInt(p.W2)
			st.tmpW[l] = p.Ext[:2*k] // L_i(a_i(v)), 2*k == len(p.Ext)
			st.tmpGot[l] = true
		})
		for _, st := range b.ts {
			for l, v := range st.verts {
				if st.inU[l] && st.tmpGot[l] {
					// L_{i+1}(v) = L_i(a_i(v)) ++ L_i(v)
					w := st.tmpW[l]
					merged := make([]LightEdge, 0, len(w)/2+len(st.lightGlobal[l]))
					for j := 0; j+1 < len(w); j += 2 {
						merged = append(merged, LightEdge{Parent: congest.WordInt(w[j]), Child: congest.WordInt(w[j+1])})
					}
					merged = append(merged, st.lightGlobal[l]...)
					grow := lightWords(merged) - lightWords(st.lightGlobal[l])
					st.lightGlobal[l] = merged
					b.sim.Mem(v).Charge(int64(grow))
				}
			}
		}
	}
}

// phaseLightDown completes Stage 2: each portal floods its global light list
// down its local tree; every vertex's final list is the portal's global list
// followed by its own local list.
func (b *distBuilder) phaseLightDown() error {
	if b.sim.FaultsEnabled() {
		for _, st := range b.ts {
			st.resetLightSeen()
		}
	}
	initial := b.union(func(st *treeState, l int) bool { return st.inU[l] })
	return b.runPhase("light-down", initial, func(v int, ctx *congest.Ctx) {
		for _, e := range b.memb(v) {
			st, l := b.ts[e.tree], int(e.local)
			if !st.inU[l] || !kickoff(st, ctx) {
				continue
			}
			st.fullLight[l] = st.lightGlobal[l]
			list := st.lightGlobal[l]
			ext := ctx.Ext(lightWords(list))
			encodeLight(ext, list)
			for _, c := range st.tree.ChildrenAt(l) {
				ctx.Send(c, congest.Payload{
					Kind: kindGLight,
					W0:   congest.IntWord(st.idx),
					W1:   congest.IntWord(len(list)),
					Ext:  ext,
				}, 2+lightWords(list))
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
			if st.inU[l] || st.dupLight(l) {
				continue
			}
			k := congest.WordInt(p.W1)
			full := make([]LightEdge, 0, k+len(st.lightLocal[l]))
			for j := 0; j < 2*k; j += 2 {
				full = append(full, LightEdge{Parent: congest.WordInt(p.Ext[j]), Child: congest.WordInt(p.Ext[j+1])})
			}
			full = append(full, st.lightLocal[l]...)
			st.fullLight[l] = full
			ctx.Mem().Charge(int64(2 * k))
			for _, c := range st.tree.ChildrenAt(l) {
				ctx.Send(c, *p, 2+2*k)
			}
		}
	})
}

// phaseLocalDFS implements Algorithms 4 and 5 event-driven: parents hand
// each child its sibling index, children exchange prefix sums of subtree
// sizes through their parent in a binary-doubling pattern (the parent only
// relays, storing nothing), and DFS range starts flow down each local tree.
// Portals record the range start assigned by the enclosing frame as their
// shift seed q_x.
func (b *distBuilder) phaseLocalDFS() error {
	maybeSendAdd := func(st *treeState, l int, ctx *congest.Ctx) {
		if st.sentAdd[l] || st.sibIdx[l] == 0 {
			return
		}
		tz := bits.TrailingZeros(uint(st.sibIdx[l]))
		lowMask := (1 << tz) - 1
		if st.addMask[l]&lowMask != lowMask {
			return
		}
		st.sentAdd[l] = true
		ctx.Send(st.tree.ParentAt(l), congest.Payload{
			Kind: kindAdd,
			W0:   congest.IntWord(st.idx),
			W1:   congest.IntWord(st.sibIdx[l]),
			W2:   congest.IntWord(st.size[l] + st.lowSum[l]),
		}, pAddWords)
	}
	maybeComplete := func(st *treeState, l int, ctx *congest.Ctx) {
		if st.dfsDone[l] {
			return
		}
		if st.sibIdx[l] == 0 || !st.haveQ[l] || st.addMask[l] != st.sibIdx[l]-1 {
			return
		}
		st.dfsDone[l] = true
		// Prefix S(y_j) = own size + all sibling adds; our range starts at
		// a + 1 + (S - size) where a is the parent's range start.
		start := st.qShift[l] + 1 + st.lowSum[l] + st.highSum[l]
		if st.inU[l] {
			st.qShift[l] = start - 1 // q_x for Algorithm 6
			return
		}
		st.localIn[l] = start
		st.haveIn[l] = true
		ctx.Mem().Charge(2)
		for _, c := range st.tree.ChildrenAt(l) {
			ctx.Send(c, congest.Payload{Kind: kindRange, W0: congest.IntWord(st.idx), W1: congest.IntWord(start)}, pRangeWords)
		}
	}
	kick := func(st *treeState, l int) bool {
		return st.inU[l] || len(st.tree.ChildrenAt(l)) > 0
	}
	// A mid-phase checkpoint restores kicked with the other builder arrays.
	if !b.sim.ResumePending() {
		for _, st := range b.ts {
			clear(st.kicked)
		}
	}
	initial := b.union(kick)
	return b.runPhase("local-dfs", initial, func(v int, ctx *congest.Ctx) {
		for _, e := range b.memb(v) {
			st, l := b.ts[e.tree], int(e.local)
			if !kick(st, l) || st.kicked[l] || !kickoff(st, ctx) {
				continue
			}
			st.kicked[l] = true
			for i, c := range st.tree.ChildrenAt(l) {
				ctx.Send(c, congest.Payload{Kind: kindIdx, W0: congest.IntWord(st.idx), W1: congest.IntWord(i + 1)}, pIdxWords)
			}
			if st.inU[l] {
				st.localIn[l] = 1
				st.haveIn[l] = true
				ctx.Mem().Charge(2)
				if v == st.tree.Root {
					st.haveQ[l] = true // q_z = 0
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
				if st.sibIdx[l] != 0 {
					continue
				}
				st.sibIdx[l] = congest.WordInt(p.W1)
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
				if st.sibIdx[l] == 0 {
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
				if st.addMask[l]&(1<<iter) != 0 {
					continue
				}
				tz := bits.TrailingZeros(uint(st.sibIdx[l]))
				if iter < tz {
					st.lowSum[l] += congest.WordInt(p.W2)
				} else {
					st.highSum[l] += congest.WordInt(p.W2)
				}
				st.addMask[l] |= 1 << iter
				maybeSendAdd(st, l, ctx)
				maybeComplete(st, l, ctx)
			case kindRange:
				st := b.ts[congest.WordInt(p.W0)]
				l := b.local(st, v)
				if st.haveQ[l] {
					continue // faulty re-delivery; one range per vertex
				}
				st.qShift[l] = congest.WordInt(p.W1)
				st.haveQ[l] = true
				ctx.Mem().Charge(1)
				maybeComplete(st, l, ctx)
			}
		}
	})
}

// phaseGlobalShifts is Algorithm 6: pointer jumping accumulates, for every
// portal, the total DFS shift induced by its portal ancestors.
func (b *distBuilder) phaseGlobalShifts() {
	for _, st := range b.ts {
		st.tmpQ = make([]int, len(st.verts))
		for l, v := range st.verts {
			if st.inU[l] {
				if v != st.tree.Root && !st.dfsDone[l] {
					panic(fmt.Sprintf("treeroute: portal %d of tree %d has no shift seed", v, st.idx))
				}
				st.shift[l] = st.qShift[l]
				if v == st.tree.Root {
					st.shift[l] = 0
				}
				b.sim.Mem(v).Charge(1)
			}
		}
	}
	for i := 0; i < b.iters; i++ {
		b.msgs = b.msgs[:0]
		for _, st := range b.ts {
			for l, v := range st.verts {
				if st.inU[l] {
					st.tmpQ[l] = 0
					b.msgs = append(b.msgs, congest.BroadcastMsg{
						Origin: v,
						Payload: congest.Payload{
							Kind: kindBShift,
							W0:   congest.IntWord(st.idx),
							W1:   congest.IntWord(v),
							W2:   congest.IntWord(st.shift[l]),
						},
						Words: bShiftWords,
					})
				}
			}
		}
		b.sim.Broadcast(b.msgs, func(v int, m *congest.BroadcastMsg) {
			p := &m.Payload
			if p.Kind != kindBShift {
				return
			}
			st := b.ts[congest.WordInt(p.W0)]
			l := b.local(st, v)
			if l < 0 || !st.inU[l] || st.anc[l][i] != congest.WordInt(p.W1) {
				return
			}
			st.tmpQ[l] = congest.WordInt(p.W2) // q_i(a_i(v))
		})
		for _, st := range b.ts {
			for l := range st.verts {
				if st.inU[l] {
					st.shift[l] += st.tmpQ[l]
				}
			}
		}
	}
}

// finalizeShift records a vertex's final DFS interval from its local entry
// time plus the accumulated portal shift.
func (b *distBuilder) finalizeShift(st *treeState, l, shift int, ctx *congest.Ctx) {
	st.finalIn[l] = st.localIn[l] + shift
	st.finalOut[l] = st.finalIn[l] + st.size[l] - 1
	ctx.Mem().Charge(2)
}

// stepShiftsDown is the per-vertex program of the shifts-down flood. It is a
// named method (not a per-phase closure) so a warm flood re-run allocates
// nothing - the steady-state alloc test pins that.
func (b *distBuilder) stepShiftsDown(v int, ctx *congest.Ctx) {
	for _, e := range b.memb(v) {
		st, l := b.ts[e.tree], int(e.local)
		if st.inU[l] && kickoff(st, ctx) {
			b.finalizeShift(st, l, st.shift[l], ctx)
			for _, c := range st.tree.ChildrenAt(l) {
				ctx.Send(c, congest.Payload{Kind: kindShift, W0: congest.IntWord(st.idx), W1: congest.IntWord(st.shift[l])}, pShiftWords)
			}
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
		if st.inU[l] || st.finalIn[l] != 0 {
			continue
		}
		b.finalizeShift(st, l, congest.WordInt(p.W1), ctx)
		for _, c := range st.tree.ChildrenAt(l) {
			ctx.Send(c, *p, pShiftWords)
		}
	}
}

// phaseShiftsDown completes Stage 3: each portal floods its accumulated
// shift down its local tree and every vertex finalises its DFS interval.
func (b *distBuilder) phaseShiftsDown() error {
	initial := b.union(func(st *treeState, l int) bool { return st.inU[l] })
	err := b.runPhase("shifts-down", initial, b.stepShiftsDown)
	if err != nil {
		return err
	}
	for _, st := range b.ts {
		for l, v := range st.verts {
			if !st.haveIn[l] && !st.inU[l] {
				return fmt.Errorf("treeroute: tree %d vertex %d never received a DFS range", st.idx, v)
			}
		}
	}
	return nil
}
