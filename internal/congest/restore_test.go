package congest

// Malformed engine checkpoints: restoreEngineCkpt must reject every image
// that is not in appendEngineCkpt's canonical layout with an error — never
// accept a state Run cannot execute, and never loop or allocate on a count
// the section cannot back. FuzzRestoreEngineCkpt checks the property on
// mutations of real mid-Run images; TestRestoreEngineCkptRejects pins the
// known bad shapes.

import (
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"lowmemroute/internal/faults"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/trace"
)

// ckptImage assembles a mid-Run engine section for s: zero counters and
// meters, no fault cursors, then body (from the executed-round count on).
func ckptImage(s *Simulator, body ...uint64) []uint64 {
	s.ensureTopology()
	w := []uint64{engineCkptVersion, engineFlagMid,
		uint64(s.N()), uint64(len(s.outTo)), uint64(s.capacity), 0, 0, 0}
	w = append(w, make([]uint64, 3*s.N()+7)...)
	w = append(w, 0) // fault cursors
	return append(w, body...)
}

// ckptMsg encodes a message from `from` of the given word count, with no
// Ext tail.
func ckptMsg(from, words int) []uint64 {
	return []uint64{uint64(from), 1, 0, 0, 0, 0, uint64(int64(words)), 0}
}

func cat(parts ...[]uint64) []uint64 {
	var w []uint64
	for _, p := range parts {
		w = append(w, p...)
	}
	return w
}

// TestRestoreEngineCkptRejects: on the path 0-1-2 (edges 0:0->1, 1:1->0,
// 2:1->2, 3:2->1), a well-formed hand-built image restores and runs, and
// each malformed variant fails with an error.
func TestRestoreEngineCkptRejects(t *testing.T) {
	const huge = 1 << 60
	neg := uint64(1<<64 - 1) // -1
	u := func(ws ...uint64) []uint64 { return ws }
	// Shared pieces: the active list {1} with one inbox message from 0, a
	// dirty destination 1 with edge 0 carrying two messages, one timer.
	active := cat(u(1, 1), u(1, 2), ckptMsg(0, 2))
	queue := cat(u(0, 1, 2), ckptMsg(0, 3), ckptMsg(0, 1))
	// Trailing words, so the check under test fails rather than an
	// earlier list's size check.
	pad := make([]uint64, 64)
	cases := []struct {
		name string
		body []uint64 // nil: the well-formed image
	}{
		{"well-formed", nil},
		{"empty-queue", cat(u(3), active, u(1, 1, 1, 0, 0, 0), u(0), pad)},
		{"sent-past-front", cat(u(3), active, u(1, 1, 1, 0, 3, 1), ckptMsg(0, 3), u(0))},
		{"sent-negative", cat(u(3), active, u(1, 1, 1, 0, neg, 1), ckptMsg(0, 3), u(0))},
		{"wrong-sender", cat(u(3), active, u(1, 1, 1, 0, 0, 1), ckptMsg(2, 3), u(0))},
		{"zero-words", cat(u(3), active, u(1, 1, 1, 0, 0, 1), ckptMsg(0, 0), u(0))},
		{"not-an-in-edge", cat(u(3), active, u(1, 1, 1, 2, 0, 1), ckptMsg(1, 3), u(0))},
		{"no-edges", cat(u(3), active, u(1, 1, 0), u(0), pad)},
		{"inbox-from-non-neighbor", cat(u(3), u(1, 0), u(1, 1), ckptMsg(2, 1), u(0, 0))},
		{"active-twice", cat(u(3), u(2, 1, 1), u(0, 0, 0, 0), u(0, 0))},
		{"destination-twice", cat(u(3), active, u(2), u(1, 1), queue, u(1, 1), queue, u(0))},
		{"edge-twice", cat(u(3), active, u(1), u(1, 2), queue, queue, u(0))},
		{"huge-active", cat(u(3), u(huge))},
		{"huge-inbox", cat(u(3), u(1, 1), u(huge, 1))},
		{"huge-ext", cat(u(3), u(1, 1), u(1, 1), u(0, 1, 0, 0, 0, 0, 1, huge))},
		{"huge-dirty", cat(u(3), active, u(huge))},
		{"huge-edges", cat(u(3), active, u(1, 1, huge), pad)},
		{"huge-queue", cat(u(3), active, u(1, 1, 1, 0, 0, huge), pad)},
		{"huge-timers", cat(u(3), active, u(1), u(1, 1), queue, u(huge), pad)},
	}
	g := graph.Path(3, graph.UnitWeights, rand.New(rand.NewSource(1)))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newGraphSim(g)
			body := tc.body
			if body == nil {
				body = cat(u(3), active, u(1), u(1, 1), queue, u(1, 5, 2))
			}
			err := s.restoreEngineCkpt(ckptImage(s, body...))
			if tc.body != nil {
				if err == nil {
					t.Fatal("malformed image restored without error")
				}
				t.Log(err)
				return
			}
			if err != nil {
				t.Fatalf("well-formed image: %v", err)
			}
			s.Run(nil, 100, func(v int, ctx *Ctx) {})
			if s.Messages() != 2 {
				t.Fatalf("resumed run delivered %d messages, want the 2 queued", s.Messages())
			}
		})
	}

	// A fault-cursor count the section cannot back, on a faulty simulator.
	s := newGraphSim(g, WithFaults(&faults.Plan{Seed: 1, Drop: 0.1}))
	img := ckptImage(s, 3, 0, 0, 0)
	img[8+3*s.N()+7] = huge
	if err := s.restoreEngineCkpt(img); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("huge fault-cursor count: err=%v", err)
	}
}

// fuzzTorus is the torus the flood seed images are cut from.
func fuzzTorus() *graph.Graph {
	return graph.Torus(4, 4, graph.UnitWeights, rand.New(rand.NewSource(3)))
}

// fuzzFlood is a stateless flood over g with Ext tails, capacity-paced
// backlog and WakeAt sleepers, so its mid-Run images carry inboxes, queues,
// arena chunks and timers.
func fuzzFlood(g graph.Topology) StepFunc {
	return func(v int, ctx *Ctx) {
		for range ctx.In() {
			ctx.Mem().Charge(1)
		}
		if ctx.Round() >= 6 {
			return
		}
		for _, nb := range neighbors(g, v) {
			ext := ctx.Ext(1 + v%2)
			ext[0] = uint64(v)
			ctx.Send(int(nb), Payload{Kind: 1, W0: IntWord(v*100 + ctx.Round()), Ext: ext}, 1+(v+int(nb)+ctx.Round())%7)
		}
		if v%3 == 0 {
			ctx.WakeAt(ctx.Round() + 3)
		} else {
			ctx.Wake()
		}
	}
}

// midRunImage runs run under a mid-Run checkpointer of cadence cut and
// returns the engine section of the image written at that cut.
func midRunImage(tb testing.TB, cut int, run func(ck *Checkpointer)) []uint64 {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "image.ckpt")
	ck := NewCheckpointer(path, int64(cut))
	ck.MidRun(true)
	run(ck)
	c, err := trace.ReadCheckpointFile(path)
	if err == nil {
		err = ck.Err()
	}
	if err != nil {
		tb.Fatal(err)
	}
	words, _, err := c.Section(EngineSection)
	if err != nil {
		tb.Fatal(err)
	}
	return words
}

var fuzzPlan = &faults.Plan{Seed: 2, Drop: 0.2, Delay: 1, Duplicate: 0.2}

// engineImages are the fuzz seeds: real mid-Run images of the torus flood
// (clean, and under fuzzPlan with its per-edge fault cursors) and of the
// ring workload cut while its ring is wrapped. The committed corpus in
// testdata/fuzz/FuzzRestoreEngineCkpt holds the same images, encoded as
// little-endian words.
func engineImages(tb testing.TB) map[string][]uint64 {
	flood := func(opts ...Option) []uint64 {
		return midRunImage(tb, 3, func(ck *Checkpointer) {
			g := fuzzTorus()
			s := newGraphSim(g, append(opts, withCheckpointer(tb, ck))...)
			s.Run([]int{0, 5, 10, 15}, 3, fuzzFlood(s.Topo()))
		})
	}
	layout := wrappingLayout
	cut := wrappedCut(tb, layout)
	wrapped := midRunImage(tb, cut, func(ck *Checkpointer) {
		runRing(tb, layout, cut, withCheckpointer(tb, ck))
	})
	return map[string][]uint64{
		"flood-clean":  flood(),
		"flood-faulty": flood(WithFaults(fuzzPlan)),
		"ring-wrapped": wrapped,
	}
}

func wordsToBytes(words []uint64) []byte {
	b := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(b[8*i:], w)
	}
	return b
}

// FuzzRestoreEngineCkpt: an engine section (little-endian words) either
// fails to restore with an error, or the Run that continues it completes
// without panicking — on the torus and on the ring workload's path, each
// with and without a fault plan.
func FuzzRestoreEngineCkpt(f *testing.F) {
	for _, img := range engineImages(f) {
		f.Add(wordsToBytes(img))
	}
	torus := fuzzTorus()
	path := graph.Path(2, graph.UnitWeights, rand.New(rand.NewSource(1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		words := make([]uint64, len(data)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		for _, g := range []*graph.Graph{torus, path} {
			for _, opts := range [][]Option{nil, {WithFaults(fuzzPlan)}} {
				s := newGraphSim(g, opts...)
				if s.restoreEngineCkpt(words) != nil {
					continue
				}
				s.Run(nil, s.resumeRound+64, fuzzFlood(s.Topo()))
			}
		}
	})
}
