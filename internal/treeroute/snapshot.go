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
// DFS frames, shifts). Convergecast scratch (pending/acc), the kickoff
// schedule, the pointer-jumping commit buffers (distBuilder.jump*), and the
// fault-duplicate filters (sizeSeen/lightSeen) are re-initialised by
// whichever phase uses them, and the sampling state (portals, offsets)
// replays deterministically from DistOptions.Seed before the first unit is
// even consulted — neither is serialised. TestBuildDistributedResumeEveryCut
// pins the classification by resuming from every one of the ten cut points.

import (
	"fmt"

	"lowmemroute/internal/graph"
	"lowmemroute/internal/trace"
)

// BuilderSection names the distributed builder's checkpoint section.
const BuilderSection = "treeroute.builder"

// Builder section versions: version 3 drops the per-member kickoff flags
// that version 2 added; a version-2 section's flags are read and discarded.
const builderCkptVersion = 3

// CkptSection implements congest.CkptProvider.
func (b *distBuilder) CkptSection() string { return BuilderSection }

// The section stores every array member by member, in the order of
// builderColumns. A per-portal array is stored as the per-member array it
// compacts: a non-portal's entry is the value the member never changes
// from, def for a number and nil for a row.

// column is one array of a tree's section: put emits it, get reads it back
// and reports whether every non-portal held its never-changed value.
// AppendCkpt and RestoreCkpt both walk builderColumns, so the two cannot
// disagree on the layout.
type column struct {
	put func(dst []uint64, st *treeState) []uint64
	get func(r *trace.WordReader, st *treeState) bool
}

var builderColumns = []column{
	field(func(m *memberState) *int32 { return &m.localRoot }),
	portalField(func(st *treeState) []int32 { return st.virtParent }, graph.NoVertex),
	field(func(m *memberState) *int32 { return &m.size }),
	field(func(m *memberState) *int32 { return &m.heavy }),
	field(func(m *memberState) *int32 { return &m.heavyBest }),
	portalField(func(st *treeState) []int32 { return st.pjS }, 0),
	portalField(func(st *treeState) []int32 { return st.pjA }, graph.NoVertex),
	rows(func(st *treeState) [][]int32 { return st.anc }, true, 1, appendInts[int32], readInt32s),
	rows(func(st *treeState) [][]LightEdge { return st.lightLocal }, false, 2, appendLight, readLight),
	rows(func(st *treeState) [][]LightEdge { return st.lightGlobal }, true, 2, appendLight, readLight),
	rows(func(st *treeState) [][]LightEdge { return st.fullLight }, false, 2, appendLight, readLight),
	field(func(m *memberState) *int32 { return &m.sibIdx }),
	field(func(m *memberState) *int32 { return &m.lowSum }),
	field(func(m *memberState) *int32 { return &m.highSum }),
	field(func(m *memberState) *int32 { return &m.addMask }),
	flag(func(m *memberState) *bool { return &m.sentAdd }),
	field(func(m *memberState) *int32 { return &m.localIn }),
	field(func(m *memberState) *int32 { return &m.qShift }),
	portalField(func(st *treeState) []int32 { return st.shift }, 0),
	flag(func(m *memberState) *bool { return &m.haveIn }),
	flag(func(m *memberState) *bool { return &m.haveQ }),
	flag(func(m *memberState) *bool { return &m.dfsDone }),
	field(func(m *memberState) *int32 { return &m.finalIn }),
	field(func(m *memberState) *int32 { return &m.finalOut }),
}

// field is a number of every member record; a word outside the int32 range
// fails the reader.
func field(f func(*memberState) *int32) column {
	return column{
		put: func(dst []uint64, st *treeState) []uint64 {
			for l := range st.m {
				dst = append(dst, uint64(int64(*f(&st.m[l]))))
			}
			return dst
		},
		get: func(r *trace.WordReader, st *treeState) bool {
			for l := range st.m {
				*f(&st.m[l]) = r.Int32()
			}
			return true
		},
	}
}

// flag is a 0/1 word of every member record.
func flag(f func(*memberState) *bool) column {
	return column{
		put: func(dst []uint64, st *treeState) []uint64 {
			for l := range st.m {
				var w uint64
				if *f(&st.m[l]) {
					w = 1
				}
				dst = append(dst, w)
			}
			return dst
		},
		get: func(r *trace.WordReader, st *treeState) bool {
			for l := range st.m {
				*f(&st.m[l]) = r.Bool()
			}
			return true
		},
	}
}

// portalField is a per-portal number array, def at every non-portal.
func portalField(xs func(*treeState) []int32, def int32) column {
	return column{
		put: func(dst []uint64, st *treeState) []uint64 {
			for l := range st.m {
				x := def
				if px := st.m[l].portal; px >= 0 {
					x = xs(st)[px]
				}
				dst = append(dst, uint64(int64(x)))
			}
			return dst
		},
		get: func(r *trace.WordReader, st *treeState) bool {
			ok := true
			for l := range st.m {
				x := r.Int32()
				if px := st.m[l].portal; px >= 0 {
					xs(st)[px] = x
				} else if x != def {
					ok = false
				}
			}
			return ok
		},
	}
}

// rows is an array of per-member rows (per-portal when perPortal, nil at
// every non-portal) with nil preserved: 0 for a nil row, else len+1 followed
// by the entries, per words each. (A portal's empty-but-initialised ancestor
// row means something different from "not a portal".) A row header is read
// with Count, so a length the section cannot back fails r.Done instead of
// sizing an allocation; a real row always can, since every tree's
// fixed-width arrays follow its rows. A failed header reads as a nil row.
func rows[T any](xs func(*treeState) [][]T, perPortal bool, per int,
	put func([]uint64, []T) []uint64, get func(*trace.WordReader, []T)) column {
	slot := func(st *treeState, l int) int {
		if perPortal {
			return int(st.m[l].portal)
		}
		return l
	}
	return column{
		put: func(dst []uint64, st *treeState) []uint64 {
			for l := range st.m {
				var row []T
				if i := slot(st, l); i >= 0 {
					row = xs(st)[i]
				}
				if row == nil {
					dst = append(dst, 0)
					continue
				}
				dst = append(dst, uint64(int64(len(row)+1)))
				dst = put(dst, row)
			}
			return dst
		},
		get: func(r *trace.WordReader, st *treeState) bool {
			ok := true
			for l := range st.m {
				var row []T
				if k := r.Count(per); k > 0 {
					row = make([]T, k-1)
					get(r, row)
				}
				if i := slot(st, l); i >= 0 {
					xs(st)[i] = row
				} else if row != nil {
					ok = false
				}
			}
			return ok
		},
	}
}

func appendInts[T int | int32](dst []uint64, xs []T) []uint64 {
	for _, x := range xs {
		dst = append(dst, uint64(int64(x)))
	}
	return dst
}

func readInt32s(r *trace.WordReader, xs []int32) {
	for i := range xs {
		xs[i] = r.Int32()
	}
}

// appendLight and readLight carry a light edge as two words.
func appendLight(dst []uint64, row []LightEdge) []uint64 {
	for _, e := range row {
		dst = append(dst, uint64(int64(e.Parent)), uint64(int64(e.Child)))
	}
	return dst
}

func readLight(r *trace.WordReader, row []LightEdge) {
	for j := range row {
		row[j] = LightEdge{Parent: r.Int(), Child: r.Int()}
	}
}

// AppendCkpt serialises every tree's durable per-vertex arrays.
func (b *distBuilder) AppendCkpt(dst []uint64) []uint64 {
	dst = append(dst, builderCkptVersion, uint64(int64(len(b.ts))))
	for _, st := range b.ts {
		dst = append(dst, uint64(int64(len(st.m))))
		for _, c := range builderColumns {
			dst = c.put(dst, st)
		}
	}
	return dst
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
		if m := r.Int(); m != len(st.m) {
			return fmt.Errorf("treeroute: builder section tree %d has %d members, builder has %d", j, m, len(st.m))
		}
		ok := true
		for _, c := range builderColumns {
			ok = c.get(r, st) && ok
		}
		if version == 2 {
			r.Take(len(st.m)) // the kickoff flags
		}
		if !ok {
			return fmt.Errorf("treeroute: builder section tree %d holds portal state for a non-portal", j)
		}
	}
	return r.Done()
}
