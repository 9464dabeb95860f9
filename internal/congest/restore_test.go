package congest

// Malformed engine checkpoints: decodeEngineCkpt must reject every section
// that is not in appendEngineCkpt's canonical quiescent layout with an error
// — never accept fault state the simulator cannot hold, and never loop or
// allocate on a count the section cannot back. FuzzRestoreEngineCkpt checks
// the property on mutations of real unit-mark images;
// TestRestoreEngineCkptRejects pins the known bad shapes.

import (
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"testing"

	"lowmemroute/internal/faults"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/trace"
)

// restoreEngineCkpt decodes an engine section against s and applies it.
func restoreEngineCkpt(s *Simulator, words []uint64) error {
	img, err := s.decodeEngineCkpt(words)
	if err != nil {
		return err
	}
	s.applyEngineCkpt(img)
	return nil
}

// ckptImage assembles a quiescent engine section for s: zero counters,
// meters and fault tallies, then the fault-cursor count and cursors (five
// words each: edge, seq, attempt, hold, rolled).
func ckptImage(s *Simulator, cursors ...[]uint64) []uint64 {
	s.ensureTopology()
	w := []uint64{engineCkptVersion, 0,
		uint64(s.N()), uint64(len(s.outTo)), uint64(s.capacity), 0, 0, 0}
	w = append(w, make([]uint64, 3*s.N()+7)...)
	w = append(w, uint64(len(cursors)))
	for _, c := range cursors {
		w = append(w, c...)
	}
	return w
}

// TestRestoreEngineCkptRejects: on the path 0-1-2 (edges 0:0->1, 1:1->0,
// 2:1->2, 3:2->1) under a drop plan, a well-formed hand-built image with two
// fault cursors restores and runs, and each malformed variant fails with an
// error.
func TestRestoreEngineCkptRejects(t *testing.T) {
	const huge = 1 << 60
	neg := uint64(1<<64 - 1) // -1
	plan := &faults.Plan{Seed: 1, Drop: 0.1}
	c0 := []uint64{0, 7, 1, 0, 1}
	c2 := []uint64{2, 3, 0, 2, 0}
	g := graph.Path(3, graph.UnitWeights, rand.New(rand.NewSource(1)))
	// edit returns the well-formed image with f applied.
	edit := func(f func(s *Simulator, w []uint64) []uint64) func(s *Simulator) []uint64 {
		return func(s *Simulator) []uint64 { return f(s, ckptImage(s, c0, c2)) }
	}
	cases := []struct {
		name  string
		clean bool                        // restore into a simulator without a fault plan
		image func(s *Simulator) []uint64 // nil: the well-formed image
	}{
		{name: "well-formed"},
		{name: "zero-words", image: func(*Simulator) []uint64 { return nil }},
		{name: "mid-run-flag", image: edit(func(_ *Simulator, w []uint64) []uint64 { w[1] = 1; return w })},
		{name: "version-0", image: edit(func(_ *Simulator, w []uint64) []uint64 { w[0] = 0; return w })},
		{name: "version-3", image: edit(func(_ *Simulator, w []uint64) []uint64 { w[0] = 3; return w })},
		{name: "trailing-words", image: edit(func(_ *Simulator, w []uint64) []uint64 { return append(w, 0) })},
		{name: "truncated", image: edit(func(_ *Simulator, w []uint64) []uint64 { return w[:len(w)-1] })},
		{name: "cursors-out-of-order", image: func(s *Simulator) []uint64 { return ckptImage(s, c2, c0) }},
		{name: "cursor-repeated", image: func(s *Simulator) []uint64 { return ckptImage(s, c0, c0) }},
		{name: "cursor-edge-out-of-range", image: func(s *Simulator) []uint64 { return ckptImage(s, c0, []uint64{4, 0, 0, 0, 0}) }},
		{name: "cursor-edge-negative", image: func(s *Simulator) []uint64 { return ckptImage(s, []uint64{neg, 0, 0, 0, 0}) }},
		{name: "cursor-attempt-out-of-range", image: func(s *Simulator) []uint64 { return ckptImage(s, []uint64{0, 0, 1 << 31, 0, 0}) }},
		{name: "cursor-hold-negative", image: func(s *Simulator) []uint64 { return ckptImage(s, []uint64{0, 0, 0, neg, 0}) }},
		{name: "huge-cursors", image: edit(func(s *Simulator, w []uint64) []uint64 { w[8+3*s.N()+7] = huge; return w })},
		{name: "fault-state-no-plan", clean: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var opts []Option
			if !tc.clean {
				opts = append(opts, WithFaults(plan))
			}
			s := newGraphSim(g, opts...)
			image := tc.image
			if image == nil {
				image = edit(func(_ *Simulator, w []uint64) []uint64 { return w })
			}
			if s.ensureFaults() != nil {
				s.faultQ[1].seq = 5 // stale state the image must clear
			}
			err := restoreEngineCkpt(s, image(s))
			if tc.image != nil || tc.clean {
				if err == nil {
					t.Fatal("malformed image restored without error")
				}
				t.Log(err)
				return
			}
			if err != nil {
				t.Fatalf("well-formed image: %v", err)
			}
			if s.faultQ[0].seq != 7 || s.faultQ[2].hold != 2 || s.faultQ[1] != (edgeFaultState{}) {
				t.Fatalf("restored fault cursors %+v", s.faultQ)
			}
			s.Run([]int{0, 1, 2}, 100, fuzzFlood(s.Topo()))
		})
	}
}

// fuzzTorus is the torus the flood seed images are written on.
func fuzzTorus() *graph.Graph {
	return graph.Torus(4, 4, graph.UnitWeights, rand.New(rand.NewSource(3)))
}

// fuzzFlood is a flood over g with Ext tails, capacity-paced backlog and
// WakeAt sleepers: under a fault plan it leaves fault cursors on many edges.
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

// markImage runs run with a checkpointer attached to its simulator, marks
// one unit after it, and returns the engine section that mark wrote.
func markImage(tb testing.TB, run func(ck *Checkpointer)) []uint64 {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "image.ckpt")
	ck := NewCheckpointer(path)
	run(ck)
	ck.Mark("run")
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

// engineImages are the fuzz seeds: the unit-mark images written after the
// torus flood (clean, and under fuzzPlan with its per-edge fault cursors)
// and after the ring workload on the path 0-1 (under fuzzPlan, with its
// ring wrapped from the first round). The committed corpus in
// testdata/fuzz/FuzzRestoreEngineCkpt holds the same images, encoded as
// little-endian words.
func engineImages(tb testing.TB) map[string][]uint64 {
	flood := func(opts ...Option) []uint64 {
		return markImage(tb, func(ck *Checkpointer) {
			s := newGraphSim(fuzzTorus(), append(opts, withCheckpointer(tb, ck))...)
			s.Run([]int{0, 5, 10, 15}, 100, fuzzFlood(s.Topo()))
		})
	}
	return map[string][]uint64{
		"flood-clean":  flood(),
		"flood-faulty": flood(WithFaults(fuzzPlan)),
		"ring-wrapped": markImage(tb, func(ck *Checkpointer) {
			runRing(tb, wrappingLayout, 1000, WithFaults(fuzzPlan), withCheckpointer(tb, ck))
		}),
	}
}

// withCheckpointer attaches ck to the simulator under construction.
func withCheckpointer(tb testing.TB, ck *Checkpointer) Option {
	return func(s *Simulator) {
		if err := ck.Attach(s); err != nil {
			tb.Fatalf("Attach: %v", err)
		}
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
// fails to decode with an error, or it applies and a Run on the restored
// simulator completes without panicking — on the torus and on the ring
// workload's path, each with and without a fault plan.
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
				if restoreEngineCkpt(s, words) != nil {
					continue
				}
				s.Run([]int{0, 1}, 64, fuzzFlood(s.Topo()))
			}
		}
	})
}
