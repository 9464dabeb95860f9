package congest

// Checkpoint/resume semantics: mid-Run resume equivalence (the strong
// condition — a run interrupted at an arbitrary round boundary and resumed
// from its checkpoint is indistinguishable from one that was never
// interrupted, at every shard count, clean and under faults), unit-granularity
// skip/restore with a registered provider, and the error paths a resume must
// fail loudly on (shape mismatch, meta mismatch, corrupt file, missing
// section, unreached unit cursor).

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

// snapRun captures everything observable about a flood run: the engine
// counters, fault tallies, per-vertex meter state, and the full per-vertex
// delivery logs.
type snapRun struct {
	executed                int
	rounds, messages, words int64
	ctr                     faults.Counters
	cur, peak               []int64
	logs                    [][]rcvd
	sim                     *Simulator
}

// runSnapshotFlood runs the torus flood workload (stateless handler: behaviour
// depends only on the vertex, the round, and the inbox — exactly the contract
// a mid-Run checkpoint needs) for maxRounds rounds, optionally under a
// checkpointer and a fault plan. Ext payloads exercise the arena-backed
// message tails through the snapshot encode/restore.
func runSnapshotFlood(t *testing.T, workers, maxRounds int, ck *Checkpointer, plan *faults.Plan) snapRun {
	t.Helper()
	const floodRounds = 10
	g := graph.Torus(floodSide, floodSide, graph.UnitWeights, rand.New(rand.NewSource(3)))
	opts := []Option{WithWorkers(workers)}
	if plan != nil {
		opts = append(opts, WithFaults(plan))
	}
	s := newGraphSim(g, opts...)
	if ck != nil {
		ck.MidRun(true)
		if err := ck.Attach(s); err != nil {
			t.Fatalf("Attach: %v", err)
		}
	}
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	logs := make([][]rcvd, g.N())
	executed := s.Run(all, maxRounds, func(v int, ctx *Ctx) {
		for _, m := range ctx.In() {
			r := rcvd{Round: ctx.Round(), From: m.From, Words: m.Words, Payload: m.Payload}
			// The inbox Ext is recycled after the round; log a copy.
			r.Payload.Ext = append([]uint64(nil), m.Payload.Ext...)
			logs[v] = append(logs[v], r)
		}
		if ctx.Round() < floodRounds {
			for _, nb := range neighbors(s.Topo(), v) {
				ext := ctx.Ext(2)
				ext[0], ext[1] = uint64(v), uint64(ctx.Round())
				ctx.Send(int(nb), Payload{Kind: 1, W0: IntWord(v*1000 + ctx.Round()), Ext: ext},
					1+(v+int(nb)+ctx.Round())%7)
			}
			ctx.Wake()
		}
	})
	res := snapRun{
		executed: executed,
		rounds:   s.Rounds(), messages: s.Messages(), words: s.Words(),
		ctr:  s.FaultCounters(),
		logs: logs,
		sim:  s,
	}
	for v := 0; v < g.N(); v++ {
		res.cur = append(res.cur, s.Mem(v).Current())
		res.peak = append(res.peak, s.Mem(v).Peak())
	}
	return res
}

// TestRunResumeEquivalence is the mid-Run checkpoint gate: run the flood to
// quiescence straight through, then again truncated at an interior round with
// a checkpoint cadence that lands exactly one snapshot at the cut, then resume
// that snapshot on a fresh simulator. Counters, fault tallies, meter state,
// and the post-cut delivery logs must all match the uninterrupted run — at
// shard widths 1 and 4, clean and under a drop/delay/duplicate plan.
func TestRunResumeEquivalence(t *testing.T) {
	const (
		cut   = 5  // interrupt after 5 executed rounds
		total = 60 // past quiescence for the 10-round flood
	)
	plans := []struct {
		name string
		plan *faults.Plan
	}{
		{"clean", nil},
		{"faulty", &faults.Plan{Seed: 9, Drop: 0.1, Delay: 1, Duplicate: 0.1}},
	}
	for _, tc := range plans {
		for _, workers := range []int{1, 4} {
			tc, workers := tc, workers
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, workers), func(t *testing.T) {
				ref := runSnapshotFlood(t, workers, total, nil, tc.plan)
				if ref.executed >= total || ref.executed <= cut {
					t.Fatalf("workload executed %d rounds; need quiescence inside (%d, %d) for a meaningful cut", ref.executed, cut, total)
				}
				if tc.plan != nil && !ref.ctr.Any() {
					t.Fatal("fault plan injected nothing; faulty variant is vacuous")
				}

				path := filepath.Join(t.TempDir(), "flood.ckpt")
				ckw := NewCheckpointer(path, cut)
				_ = runSnapshotFlood(t, workers, cut, ckw, tc.plan)
				if err := ckw.Err(); err != nil {
					t.Fatalf("checkpoint write: %v", err)
				}

				ckr, err := ResumeCheckpointer(path, cut)
				if err != nil {
					t.Fatalf("ResumeCheckpointer: %v", err)
				}
				got := runSnapshotFlood(t, workers, total, ckr, tc.plan)
				requireForked(t, ref.sim, workers)
				requireForked(t, got.sim, workers)

				if got.executed != ref.executed {
					t.Fatalf("resumed run executed %d rounds, straight run %d", got.executed, ref.executed)
				}
				if got.rounds != ref.rounds || got.messages != ref.messages || got.words != ref.words {
					t.Fatalf("counters differ after resume: rounds %d vs %d, messages %d vs %d, words %d vs %d",
						got.rounds, ref.rounds, got.messages, ref.messages, got.words, ref.words)
				}
				if got.ctr != ref.ctr {
					t.Fatalf("fault counters differ after resume: %+v vs %+v", got.ctr, ref.ctr)
				}
				if !reflect.DeepEqual(got.cur, ref.cur) || !reflect.DeepEqual(got.peak, ref.peak) {
					t.Fatal("per-vertex meter state differs after resume")
				}
				// The resumed run only observes rounds >= cut; the straight
				// run's log suffix must match it exactly.
				for v := range ref.logs {
					var tail []rcvd
					for _, r := range ref.logs[v] {
						if r.Round >= cut {
							tail = append(tail, r)
						}
					}
					if !reflect.DeepEqual(tail, got.logs[v]) {
						t.Fatalf("vertex %d post-cut delivery log differs:\nstraight: %v\nresumed:  %v", v, tail, got.logs[v])
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
	ckw := NewCheckpointer(p1, 0)
	if err := ckw.SetMeta("workload", "unit-build"); err != nil {
		t.Fatal(err)
	}
	_, _ = runUnitBuild(t, ckw, 1) // "crash" after phase 1
	if err := ckw.Err(); err != nil {
		t.Fatalf("interrupted build: %v", err)
	}

	ckr, err := ResumeCheckpointer(p1, 0)
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
	ckFull := NewCheckpointer(p2, 0)
	_, _ = runUnitBuild(t, ckFull, 2)
	if err := ckFull.Err(); err != nil {
		t.Fatal(err)
	}
	ckSkip, err := ResumeCheckpointer(p2, 0)
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
	ck := NewCheckpointer(good, 3)
	if err := ck.SetMeta("family", "torus"); err != nil {
		t.Fatal(err)
	}
	_ = runSnapshotFlood(t, 2, 3, ck, nil)
	if err := ck.Err(); err != nil {
		t.Fatal(err)
	}

	newSim := func(n int, opts ...Option) *Simulator {
		g := graph.Path(n, graph.UnitWeights, rand.New(rand.NewSource(1)))
		return newGraphSim(g, opts...)
	}

	t.Run("wrong-vertex-count", func(t *testing.T) {
		ckr, err := ResumeCheckpointer(good, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := ckr.Attach(newSim(10)); err == nil || !strings.Contains(err.Error(), "n=") {
			t.Fatalf("Attach on a 10-vertex simulator: err=%v, want vertex-count mismatch", err)
		}
	})

	t.Run("wrong-capacity", func(t *testing.T) {
		ckr, err := ResumeCheckpointer(good, 3)
		if err != nil {
			t.Fatal(err)
		}
		g := graph.Torus(floodSide, floodSide, graph.UnitWeights, rand.New(rand.NewSource(3)))
		if err := ckr.Attach(newGraphSim(g, WithEdgeCapacity(2))); err == nil || !strings.Contains(err.Error(), "capacity") {
			t.Fatalf("Attach under capacity 2: err=%v, want capacity mismatch", err)
		}
	})

	t.Run("meta-mismatch", func(t *testing.T) {
		ckr, err := ResumeCheckpointer(good, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := ckr.SetMeta("family", "grid"); err == nil || !strings.Contains(err.Error(), "family") {
			t.Fatalf("SetMeta(family, grid) against a torus checkpoint: err=%v, want mismatch", err)
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
		if _, err := ResumeCheckpointer(bad, 3); err == nil {
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
		if _, err := ResumeCheckpointer(bad, 3); err == nil {
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
		if _, err := ResumeCheckpointer(bad, 3); err == nil || !strings.Contains(err.Error(), EngineSection) {
			t.Fatalf("resume without an engine section: err=%v", err)
		}
	})

	t.Run("malformed-unit-section", func(t *testing.T) {
		// A CRC-valid unit checkpoint whose engine section carries a
		// trailing word: applying it at the cursor is an error, not a panic.
		p1 := filepath.Join(dir, "one-unit.ckpt")
		ckw := NewCheckpointer(p1, 0)
		_, _ = runUnitBuild(t, ckw, 1)
		if err := ckw.Err(); err != nil {
			t.Fatal(err)
		}
		c, err := trace.ReadCheckpointFile(p1)
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
		ckr, err := ResumeCheckpointer(bad, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := ckr.Attach(newSim(8)); err != nil {
			t.Fatal(err)
		}
		if done, err := ckr.UnitDone("p1"); done || err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("UnitDone on a malformed section: done=%v err=%v", done, err)
		}
	})
	t.Run("unreached-unit-cursor", func(t *testing.T) {
		// A quiescent checkpoint recording 2 completed units, resumed by a
		// run that only ever declares one: Err must flag the mismatch.
		p2 := filepath.Join(dir, "two-units.ckpt")
		ckw := NewCheckpointer(p2, 0)
		_, _ = runUnitBuild(t, ckw, 2)
		if err := ckw.Err(); err != nil {
			t.Fatal(err)
		}
		ckr, err := ResumeCheckpointer(p2, 0)
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
