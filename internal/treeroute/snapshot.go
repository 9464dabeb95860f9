package treeroute

// Checkpoint support for the distributed builder. The construction is a
// fixed sequence of ten phases, each ending at a quiescent point; the
// checkpointer records them as units ("tree:local-roots", ...) and a resumed
// build skips completed phases, restoring the durable per-tree state from
// this provider's section when the unit cursor catches up (see
// congest.Checkpointer and DESIGN.md §15).
//
// What is durable is exactly the state a later phase reads: the per-vertex
// algorithm outputs (local roots, sizes, heavy children, light-edge lists,
// DFS frames, shifts), plus the kickoff flags, so that a mid-Run checkpoint
// inside local-dfs (whose handler state is otherwise all durable) resumes
// too (TestLocalDFSMidRunResume). Convergecast scratch (pending/acc), the
// pointer-jumping commit buffers (tmp*), and the fault-duplicate filters
// (sizeSeen/lightSeen) are re-initialised by whichever phase uses them, and
// the sampling state (inU, offsets) replays deterministically from
// DistOptions.Seed before the first unit is even consulted — neither is
// serialised. TestBuildDistributedResumeEveryCut pins the classification by
// resuming from every one of the ten cut points.

import (
	"fmt"

	"lowmemroute/internal/trace"
)

// BuilderSection names the distributed builder's checkpoint section.
const BuilderSection = "treeroute.builder"

// Builder section versions: version 2 adds the kickoff flags; version-1
// sections restore with the flags cleared.
const builderCkptVersion = 2

// CkptSection implements congest.CkptProvider.
func (b *distBuilder) CkptSection() string { return BuilderSection }

// appendInts emits a same-length int array as words.
func appendInts(dst []uint64, xs []int) []uint64 {
	for _, x := range xs {
		dst = append(dst, uint64(int64(x)))
	}
	return dst
}

// appendBools emits a same-length bool array as 0/1 words.
func appendBools(dst []uint64, xs []bool) []uint64 {
	for _, x := range xs {
		var w uint64
		if x {
			w = 1
		}
		dst = append(dst, w)
	}
	return dst
}

// appendIntLists emits a [][]int with nil preserved: 0 for a nil row, else
// len+1 followed by the entries. (A portal's empty-but-initialised ancestor
// row means something different from "not a portal".)
func appendIntLists(dst []uint64, xs [][]int) []uint64 {
	for _, row := range xs {
		if row == nil {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, uint64(int64(len(row)+1)))
		dst = appendInts(dst, row)
	}
	return dst
}

// appendLightLists emits a [][]LightEdge with the same nil-vs-empty encoding,
// two words per edge.
func appendLightLists(dst []uint64, xs [][]LightEdge) []uint64 {
	for _, row := range xs {
		if row == nil {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, uint64(int64(len(row)+1)))
		for _, e := range row {
			dst = append(dst, uint64(int64(e.Parent)), uint64(int64(e.Child)))
		}
	}
	return dst
}

// AppendCkpt serialises every tree's durable per-vertex arrays.
func (b *distBuilder) AppendCkpt(dst []uint64) []uint64 {
	dst = append(dst, builderCkptVersion, uint64(int64(len(b.ts))))
	for _, st := range b.ts {
		dst = append(dst, uint64(int64(len(st.verts))))
		dst = appendInts(dst, st.localRoot)
		dst = appendInts(dst, st.virtParent)
		dst = appendInts(dst, st.size)
		dst = appendInts(dst, st.heavy)
		dst = appendInts(dst, st.heavyBest)
		dst = appendInts(dst, st.pjS)
		dst = appendInts(dst, st.pjA)
		dst = appendIntLists(dst, st.anc)
		dst = appendLightLists(dst, st.lightLocal)
		dst = appendLightLists(dst, st.lightGlobal)
		dst = appendLightLists(dst, st.fullLight)
		dst = appendInts(dst, st.sibIdx)
		dst = appendInts(dst, st.lowSum)
		dst = appendInts(dst, st.highSum)
		dst = appendInts(dst, st.addMask)
		dst = appendBools(dst, st.sentAdd)
		dst = appendInts(dst, st.localIn)
		dst = appendInts(dst, st.qShift)
		dst = appendInts(dst, st.shift)
		dst = appendBools(dst, st.haveIn)
		dst = appendBools(dst, st.haveQ)
		dst = appendBools(dst, st.dfsDone)
		dst = appendInts(dst, st.finalIn)
		dst = appendInts(dst, st.finalOut)
		dst = appendBools(dst, st.kicked)
	}
	return dst
}

func readInts(r *trace.WordReader, xs []int) {
	for i := range xs {
		xs[i] = r.Int()
	}
}

func readBools(r *trace.WordReader, xs []bool) {
	for i := range xs {
		xs[i] = r.Bool()
	}
}

func readIntLists(r *trace.WordReader, xs [][]int) error {
	for i := range xs {
		k := r.Int()
		if k == 0 {
			xs[i] = nil
			continue
		}
		if k < 0 {
			return fmt.Errorf("treeroute: builder section row length %d", k)
		}
		row := make([]int, k-1)
		readInts(r, row)
		xs[i] = row
	}
	return nil
}

func readLightLists(r *trace.WordReader, xs [][]LightEdge) error {
	for i := range xs {
		k := r.Int()
		if k == 0 {
			xs[i] = nil
			continue
		}
		if k < 0 {
			return fmt.Errorf("treeroute: builder section row length %d", k)
		}
		row := make([]LightEdge, k-1)
		for j := range row {
			row[j] = LightEdge{Parent: r.Int(), Child: r.Int()}
		}
		xs[i] = row
	}
	return nil
}

// RestoreCkpt rebuilds the durable arrays of every tree. The builder must be
// constructed for the same trees (member counts are validated; content
// equality is the caller's SetMeta contract).
func (b *distBuilder) RestoreCkpt(words []uint64) error {
	r := trace.NewWordReader(words)
	version := r.Word()
	if version < 1 || version > builderCkptVersion {
		return fmt.Errorf("treeroute: builder section version %d, want 1..%d", version, builderCkptVersion)
	}
	if k := r.Int(); k != len(b.ts) {
		return fmt.Errorf("treeroute: builder section has %d trees, builder has %d", k, len(b.ts))
	}
	for j, st := range b.ts {
		if m := r.Int(); m != len(st.verts) {
			return fmt.Errorf("treeroute: builder section tree %d has %d members, builder has %d", j, m, len(st.verts))
		}
		readInts(r, st.localRoot)
		readInts(r, st.virtParent)
		readInts(r, st.size)
		readInts(r, st.heavy)
		readInts(r, st.heavyBest)
		readInts(r, st.pjS)
		readInts(r, st.pjA)
		if err := readIntLists(r, st.anc); err != nil {
			return err
		}
		if err := readLightLists(r, st.lightLocal); err != nil {
			return err
		}
		if err := readLightLists(r, st.lightGlobal); err != nil {
			return err
		}
		if err := readLightLists(r, st.fullLight); err != nil {
			return err
		}
		readInts(r, st.sibIdx)
		readInts(r, st.lowSum)
		readInts(r, st.highSum)
		readInts(r, st.addMask)
		readBools(r, st.sentAdd)
		readInts(r, st.localIn)
		readInts(r, st.qShift)
		readInts(r, st.shift)
		readBools(r, st.haveIn)
		readBools(r, st.haveQ)
		readBools(r, st.dfsDone)
		readInts(r, st.finalIn)
		readInts(r, st.finalOut)
		clear(st.kicked)
		if version >= 2 {
			readBools(r, st.kicked)
		}
	}
	return r.Done()
}
