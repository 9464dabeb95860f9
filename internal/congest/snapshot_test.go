package congest

// Checkpoint/resume semantics: a flood build resumed at a unit mark equals
// the uninterrupted one at every shard count, clean and under faults;
// unit-granularity skip/restore with a registered provider; version-1
// engine sections; validation of the whole engine section at Attach; and
// the error paths a resume must fail loudly on (shape mismatch, meta
// mismatch, corrupt file, missing section, unreached unit cursor).

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lowmemroute/internal/faults"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/trace"
)

// snapRun captures the engine counters and per-vertex meter state of a run.
type snapRun struct {
	rounds, messages, words int64
	cur, peak               []int64
}

// floodUnits runs the flood torus as a build of two units, each one flood
// Run with Ext payloads followed by a Mark, under an optional checkpointer
// and fault plan; stopAfter truncates the build after that many units (the
// "crash"). A resuming ck skips the first unit and restores its image. The
// result holds the final engine state and the last executed unit's
// delivery logs.
func floodUnits(t *testing.T, workers int, plan *faults.Plan, ck *Checkpointer, stopAfter int) (floodResult, *Simulator) {
	t.Helper()
	g := graph.Torus(floodSide, floodSide, graph.UnitWeights, rand.New(rand.NewSource(3)))
	opts := []Option{WithWorkers(workers)}
	if plan != nil {
		opts = append(opts, WithFaults(plan))
	}
	s := newGraphSim(g, opts...)
	if err := ck.Attach(s); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	var logs [][]rcvd
	for unit := 1; unit <= stopAfter; unit++ {
		name := fmt.Sprintf("flood-%d", unit)
		if unitDone(t, ck, name) {
			continue
		}
		logs = make([][]rcvd, g.N())
		s.Run(all, 1000, func(v int, ctx *Ctx) {
			for _, m := range ctx.In() {
				r := rcvd{Round: ctx.Round(), From: m.From, Words: m.Words, Payload: m.Payload}
				// The inbox Ext is recycled after the round; log a copy.
				r.Payload.Ext = append([]uint64(nil), m.Payload.Ext...)
				logs[v] = append(logs[v], r)
			}
			if ctx.Round() < 10 {
				for _, nb := range neighbors(s.Topo(), v) {
					ext := ctx.Ext(2)
					ext[0], ext[1] = uint64(v), uint64(unit)
					ctx.Send(int(nb), Payload{Kind: 1, W0: IntWord(v*1000 + ctx.Round()), Ext: ext},
						1+(v+int(nb)+ctx.Round()+unit)%7)
				}
				ctx.Wake()
			}
		})
		ck.Mark(name)
	}
	res := floodResult{rounds: s.Rounds(), messages: s.Messages(), words: s.Words(), logs: logs, ctr: s.FaultCounters()}
	for v := 0; v < g.N(); v++ {
		res.peaks = append(res.peaks, s.Mem(v).Peak())
	}
	return res, s
}

// TestRunResumeEquivalence is the unit-mark checkpoint gate for the engine
// section: a two-unit flood build interrupted after its first unit, at one
// shard width, and resumed from that unit's image at another must equal
// the uninterrupted build — counters, fault tallies and per-edge fault
// cursors (which decide the second unit's faults), meter peaks, and the
// second unit's delivery logs — clean and under a drop/delay/duplicate
// plan. The torus forks its rounds, so the sharded runs use the pool.
func TestRunResumeEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan *faults.Plan
	}{
		{"clean", nil},
		{"faulty", &faults.Plan{Seed: 9, Drop: 0.1, Delay: 1, Duplicate: 0.1}},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, workers), func(t *testing.T) {
				ref, refSim := floodUnits(t, workers, tc.plan, nil, 2)
				if tc.plan != nil && !ref.ctr.Any() {
					t.Fatal("fault plan injected nothing; faulty variant is vacuous")
				}
				path := filepath.Join(t.TempDir(), "flood.ckpt")
				ckw := NewCheckpointer(path)
				_, _ = floodUnits(t, 5-workers, tc.plan, ckw, 1)
				if err := ckw.Err(); err != nil {
					t.Fatalf("checkpoint write: %v", err)
				}
				ckr, err := ResumeCheckpointer(path)
				if err != nil {
					t.Fatal(err)
				}
				got, gotSim := floodUnits(t, workers, tc.plan, ckr, 2)
				if err := ckr.Err(); err != nil {
					t.Fatalf("resumed build: %v", err)
				}
				requireForked(t, refSim, workers)
				requireForked(t, gotSim, workers)
				if got.rounds != ref.rounds || got.messages != ref.messages || got.words != ref.words {
					t.Fatalf("counters differ after resume: rounds %d vs %d, messages %d vs %d, words %d vs %d",
						got.rounds, ref.rounds, got.messages, ref.messages, got.words, ref.words)
				}
				if got.ctr != ref.ctr {
					t.Fatalf("fault counters differ after resume: %+v vs %+v", got.ctr, ref.ctr)
				}
				if !reflect.DeepEqual(got.peaks, ref.peaks) {
					t.Fatal("per-vertex meter peaks differ after resume")
				}
				for v := range ref.logs {
					if !reflect.DeepEqual(got.logs[v], ref.logs[v]) {
						t.Fatalf("vertex %d second-unit delivery log differs:\nstraight: %v\nresumed:  %v", v, ref.logs[v], got.logs[v])
					}
				}
			})
		}
	}
}

// sumProvider is a minimal CkptProvider: per-vertex accumulators a handler
// mutates, standing in for the hopset/treeroute durable state.
type sumProvider struct{ vals []uint64 }

func (p *sumProvider) CkptSection() string { return "test.sum" }
func (p *sumProvider) AppendCkpt(dst []uint64) []uint64 {
	dst = append(dst, uint64(len(p.vals)))
	return append(dst, p.vals...)
}
func (p *sumProvider) RestoreCkpt(words []uint64) error {
	r := trace.NewWordReader(words)
	p.vals = append(p.vals[:0], r.Take(r.Int())...)
	return r.Done()
}

// runUnitBuild is a two-phase "build" over a path graph: phase 1 floods and
// accumulates into the provider, phase 2 reseeds from the accumulated values.
// Phase 2's output depends on phase 1's provider state AND the engine's meter
// history, so a resume that restores either one incompletely cannot match.
// stopAfter truncates the build after that many phases (the "crash").
func runUnitBuild(t *testing.T, ck *Checkpointer, stopAfter int) ([]uint64, snapRun) {
	t.Helper()
	const n = 8
	g := graph.Path(n, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := newGraphSim(g)
	if err := ck.Attach(s); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	p := &sumProvider{vals: make([]uint64, n)}
	if err := ck.Register(p); err != nil {
		t.Fatalf("Register: %v", err)
	}
	all := make([]int, n)
	for v := range all {
		all[v] = v
	}
	if !unitDone(t, ck, "p1") {
		s.Run(all, 6, func(v int, ctx *Ctx) {
			for _, m := range ctx.In() {
				p.vals[v] += m.Payload.W0
			}
			if ctx.Round() < 3 {
				for _, nb := range neighbors(s.Topo(), v) {
					ctx.Send(int(nb), Payload{W0: uint64(v*7 + ctx.Round() + 1)}, 1+v%3)
				}
				ctx.Wake()
			}
		})
		ck.Mark("p1")
	}
	if stopAfter >= 2 && !unitDone(t, ck, "p2") {
		s.Run(all, 6, func(v int, ctx *Ctx) {
			for _, m := range ctx.In() {
				p.vals[v] = p.vals[v]*31 + m.Payload.W0
			}
			if ctx.Round() == 0 {
				for _, nb := range neighbors(s.Topo(), v) {
					ctx.Send(int(nb), Payload{W0: p.vals[v] + 1}, 1)
				}
			}
		})
		ck.Mark("p2")
	}
	res := snapRun{rounds: s.Rounds(), messages: s.Messages(), words: s.Words()}
	for v := 0; v < n; v++ {
		res.cur = append(res.cur, s.Mem(v).Current())
		res.peak = append(res.peak, s.Mem(v).Peak())
	}
	return p.vals, res
}

// unitDone is ck.UnitDone for a resume that must apply cleanly.
func unitDone(t *testing.T, ck *Checkpointer, unit string) bool {
	t.Helper()
	done, err := ck.UnitDone(unit)
	if err != nil {
		t.Fatal(err)
	}
	return done
}

// TestUnitCheckpointResume pins the unit-granularity path: a build
// interrupted between phases resumes by skipping the completed unit,
// restoring the engine and provider sections at the cursor, and running only
// the remaining phase — with results identical to the uninterrupted build.
// Resuming from the final checkpoint skips everything.
func TestUnitCheckpointResume(t *testing.T) {
	refVals, refRun := runUnitBuild(t, nil, 2) // nil Checkpointer: plain build

	dir := t.TempDir()
	p1 := filepath.Join(dir, "after-p1.ckpt")
	ckw := NewCheckpointer(p1)
	if err := ckw.SetMeta("workload", "unit-build"); err != nil {
		t.Fatal(err)
	}
	_, _ = runUnitBuild(t, ckw, 1) // "crash" after phase 1
	if err := ckw.Err(); err != nil {
		t.Fatalf("interrupted build: %v", err)
	}

	ckr, err := ResumeCheckpointer(p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckr.SetMeta("workload", "unit-build"); err != nil {
		t.Fatal(err)
	}
	gotVals, gotRun := runUnitBuild(t, ckr, 2)
	if err := ckr.Err(); err != nil {
		t.Fatalf("resumed build: %v", err)
	}
	if !reflect.DeepEqual(gotVals, refVals) {
		t.Fatalf("provider state after resume: %v, straight build: %v", gotVals, refVals)
	}
	if !reflect.DeepEqual(gotRun, refRun) {
		t.Fatalf("engine state after resume: %+v, straight build: %+v", gotRun, refRun)
	}

	// Full build with a checkpointer leaves a units=2 snapshot; resuming it
	// skips both phases and must still reproduce everything.
	p2 := filepath.Join(dir, "after-p2.ckpt")
	ckFull := NewCheckpointer(p2)
	_, _ = runUnitBuild(t, ckFull, 2)
	if err := ckFull.Err(); err != nil {
		t.Fatal(err)
	}
	ckSkip, err := ResumeCheckpointer(p2)
	if err != nil {
		t.Fatal(err)
	}
	skipVals, skipRun := runUnitBuild(t, ckSkip, 2)
	if err := ckSkip.Err(); err != nil {
		t.Fatalf("full-skip resume: %v", err)
	}
	if !reflect.DeepEqual(skipVals, refVals) || !reflect.DeepEqual(skipRun, refRun) {
		t.Fatal("resume from the final checkpoint diverged from the straight build")
	}
}

// TestCheckpointResumeErrors exercises every way a resume must fail loudly
// instead of silently diverging.
func TestCheckpointResumeErrors(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ckpt")
	ck := NewCheckpointer(good)
	if err := ck.SetMeta("family", "path"); err != nil {
		t.Fatal(err)
	}
	_, _ = runUnitBuild(t, ck, 1)
	if err := ck.Err(); err != nil {
		t.Fatal(err)
	}

	newSim := func(n int, opts ...Option) *Simulator {
		g := graph.Path(n, graph.UnitWeights, rand.New(rand.NewSource(1)))
		return newGraphSim(g, opts...)
	}

	t.Run("wrong-vertex-count", func(t *testing.T) {
		ckr, err := ResumeCheckpointer(good)
		if err != nil {
			t.Fatal(err)
		}
		if err := ckr.Attach(newSim(10)); err == nil || !strings.Contains(err.Error(), "n=") {
			t.Fatalf("Attach on a 10-vertex simulator: err=%v, want vertex-count mismatch", err)
		}
	})

	t.Run("wrong-capacity", func(t *testing.T) {
		ckr, err := ResumeCheckpointer(good)
		if err != nil {
			t.Fatal(err)
		}
		if err := ckr.Attach(newSim(8, WithEdgeCapacity(2))); err == nil || !strings.Contains(err.Error(), "capacity") {
			t.Fatalf("Attach under capacity 2: err=%v, want capacity mismatch", err)
		}
	})

	t.Run("meta-mismatch", func(t *testing.T) {
		ckr, err := ResumeCheckpointer(good)
		if err != nil {
			t.Fatal(err)
		}
		if err := ckr.SetMeta("family", "grid"); err == nil || !strings.Contains(err.Error(), "family") {
			t.Fatalf("SetMeta(family, grid) against a path checkpoint: err=%v, want mismatch", err)
		}
	})

	t.Run("corrupt-file", func(t *testing.T) {
		raw, err := os.ReadFile(good)
		if err != nil {
			t.Fatal(err)
		}
		bad := filepath.Join(dir, "corrupt.ckpt")
		flipped := append([]byte(nil), raw...)
		flipped[len(flipped)/2] ^= 0x40
		if err := os.WriteFile(bad, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ResumeCheckpointer(bad); err == nil {
			t.Fatal("resuming a bit-flipped checkpoint file succeeded")
		}
	})

	t.Run("truncated-file", func(t *testing.T) {
		raw, err := os.ReadFile(good)
		if err != nil {
			t.Fatal(err)
		}
		bad := filepath.Join(dir, "trunc.ckpt")
		if err := os.WriteFile(bad, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ResumeCheckpointer(bad); err == nil {
			t.Fatal("resuming a truncated checkpoint file succeeded")
		}
	})

	t.Run("missing-engine-section", func(t *testing.T) {
		c := &trace.Checkpoint{Meta: map[string]string{"units": "1"}}
		c.AddSection("something.else", []uint64{1, 2, 3})
		bad := filepath.Join(dir, "no-engine.ckpt")
		if err := trace.WriteCheckpointFile(bad, c); err != nil {
			t.Fatal(err)
		}
		if _, err := ResumeCheckpointer(bad); err == nil || !strings.Contains(err.Error(), EngineSection) {
			t.Fatalf("resume without an engine section: err=%v", err)
		}
	})

	t.Run("malformed-unit-section", func(t *testing.T) {
		// A CRC-valid unit checkpoint whose engine section carries a
		// trailing word: Attach rejects it before the build starts.
		c, err := trace.ReadCheckpointFile(good)
		if err != nil {
			t.Fatal(err)
		}
		words, _, err := c.Section(EngineSection)
		if err != nil {
			t.Fatal(err)
		}
		tampered := &trace.Checkpoint{Meta: c.Meta}
		tampered.AddSection(EngineSection, append(words, 0))
		bad := filepath.Join(dir, "malformed-unit.ckpt")
		if err := trace.WriteCheckpointFile(bad, tampered); err != nil {
			t.Fatal(err)
		}
		ckr, err := ResumeCheckpointer(bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := ckr.Attach(newSim(8)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("Attach with a malformed engine section: err=%v", err)
		}
	})
	t.Run("unreached-unit-cursor", func(t *testing.T) {
		// A quiescent checkpoint recording 2 completed units, resumed by a
		// run that only ever declares one: Err must flag the mismatch.
		p2 := filepath.Join(dir, "two-units.ckpt")
		ckw := NewCheckpointer(p2)
		_, _ = runUnitBuild(t, ckw, 2)
		if err := ckw.Err(); err != nil {
			t.Fatal(err)
		}
		ckr, err := ResumeCheckpointer(p2)
		if err != nil {
			t.Fatal(err)
		}
		if err := ckr.Attach(newSim(8)); err != nil {
			t.Fatal(err)
		}
		if !unitDone(t, ckr, "p1") {
			t.Fatal("first unit of a units=2 checkpoint not skipped")
		}
		if err := ckr.Err(); err == nil || !strings.Contains(err.Error(), "completed units") {
			t.Fatalf("Err with an unreached cursor: %v", err)
		}
	})
}

// TestEngineV1CheckpointRestores: a version-1 engine section — the layout a
// quiescent version-2 section has under its old version word — resumes to
// the uninterrupted build.
func TestEngineV1CheckpointRestores(t *testing.T) {
	refVals, refRun := runUnitBuild(t, nil, 2)
	dir := t.TempDir()
	v2 := filepath.Join(dir, "v2.ckpt")
	ckw := NewCheckpointer(v2)
	_, _ = runUnitBuild(t, ckw, 1)
	if err := ckw.Err(); err != nil {
		t.Fatal(err)
	}
	c, err := trace.ReadCheckpointFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	words, _, err := c.Section(EngineSection)
	if err != nil {
		t.Fatal(err)
	}
	if words[0] != 2 || words[1] != 0 {
		t.Fatalf("unit checkpoint: version %d flags %d; want version 2, flags 0", words[0], words[1])
	}
	v1 := &trace.Checkpoint{Meta: c.Meta}
	v1.AddSection(EngineSection, append([]uint64{1}, words[1:]...))
	for _, sec := range c.Sections {
		if sec.Name != EngineSection {
			v1.Sections = append(v1.Sections, sec)
		}
	}
	path := filepath.Join(dir, "v1.ckpt")
	if err := trace.WriteCheckpointFile(path, v1); err != nil {
		t.Fatal(err)
	}
	ckr, err := ResumeCheckpointer(path)
	if err != nil {
		t.Fatal(err)
	}
	gotVals, gotRun := runUnitBuild(t, ckr, 2)
	if err := ckr.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotVals, refVals) || !reflect.DeepEqual(gotRun, refRun) {
		t.Fatal("v1 resume diverged from the straight build")
	}
}

// TestAttachValidatesEngineSection: a unit-mark image whose fault cursors
// are out of order fails at Attach, before the build replays anything, and
// leaves the simulator's counters and meters untouched.
func TestAttachValidatesEngineSection(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ckpt")
	ckw := NewCheckpointer(good)
	s := newGraphSim(fuzzTorus(), WithFaults(fuzzPlan), withCheckpointer(t, ckw))
	s.Run([]int{0, 5, 10, 15}, 100, fuzzFlood(s.Topo()))
	ckw.Mark("flood")
	if err := ckw.Err(); err != nil {
		t.Fatal(err)
	}
	c, err := trace.ReadCheckpointFile(good)
	if err != nil {
		t.Fatal(err)
	}
	words, _, err := c.Section(EngineSection)
	if err != nil {
		t.Fatal(err)
	}
	at := 8 + 3*s.N() + 7 // the fault-cursor count
	if words[at] < 2 {
		t.Fatalf("image carries %d fault cursors, want at least 2", words[at])
	}
	bad := append([]uint64(nil), words...)
	first, second := bad[at+1:at+6], bad[at+6:at+11]
	swapped := append(append([]uint64(nil), second...), first...)
	copy(bad[at+1:], swapped)
	tampered := &trace.Checkpoint{Meta: c.Meta}
	tampered.AddSection(EngineSection, bad)
	path := filepath.Join(dir, "unordered.ckpt")
	if err := trace.WriteCheckpointFile(path, tampered); err != nil {
		t.Fatal(err)
	}

	used := newGraphSim(fuzzTorus(), WithFaults(fuzzPlan))
	used.Run([]int{1, 2}, 100, fuzzFlood(used.Topo()))
	snap := func() snapRun {
		r := snapRun{rounds: used.Rounds(), messages: used.Messages(), words: used.Words()}
		for v := 0; v < used.N(); v++ {
			r.cur = append(r.cur, used.Mem(v).Current())
			r.peak = append(r.peak, used.Mem(v).Peak())
		}
		return r
	}
	before, ctr := snap(), used.FaultCounters()
	ckr, err := ResumeCheckpointer(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckr.Attach(used); err == nil || !strings.Contains(err.Error(), "order") {
		t.Fatalf("Attach with out-of-order fault cursors: err=%v", err)
	}
	if after := snap(); !reflect.DeepEqual(after, before) || used.FaultCounters() != ctr {
		t.Fatal("a rejected Attach modified the simulator")
	}
}
