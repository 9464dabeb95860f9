package congest

// WakeAt timer semantics: a sleeper steps exactly at its round, a timer
// program is indistinguishable from the same program spinning on Wake (at
// every shard count, with the idle fast-forward on or off, and under crash
// windows), timers past maxRounds are dropped, tracing still samples every
// round, timers survive a mid-Run checkpoint, and a timer-heavy steady state
// allocates nothing.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"lowmemroute/internal/faults"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/trace"
)

// TestWakeAtStepsExactlyAtRound: a sleeper steps in round 0 (initial), at
// its timer round, and in no round in between, although a token walking a
// path keeps every round busy. Requests at or before the current round
// mean the next round, and the earliest request of a step wins.
func TestWakeAtStepsExactlyAtRound(t *testing.T) {
	cases := []struct {
		name string
		arm  func(ctx *Ctx)
		want []int
	}{
		{"single", func(ctx *Ctx) { ctx.WakeAt(7) }, []int{0, 7}},
		{"earliest-wins", func(ctx *Ctx) { ctx.WakeAt(9); ctx.WakeAt(4); ctx.WakeAt(12) }, []int{0, 4}},
		{"past-means-next", func(ctx *Ctx) { ctx.WakeAt(0) }, []int{0, 1}},
		{"wake-beats-timer", func(ctx *Ctx) { ctx.WakeAt(6); ctx.Wake() }, []int{0, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 16
			g := graph.Path(n, graph.UnitWeights, rand.New(rand.NewSource(1)))
			s := newGraphSim(g)
			var steps []int
			executed := s.Run([]int{0, 1}, 100, func(v int, ctx *Ctx) {
				if v == 0 {
					steps = append(steps, ctx.Round())
					if ctx.Round() == 0 {
						tc.arm(ctx)
					}
					return
				}
				if v < n-1 { // the token walks 1 -> 2 -> ... -> n-1
					ctx.Send(v+1, Payload{}, 1)
				}
			})
			if !reflect.DeepEqual(steps, tc.want) {
				t.Fatalf("vertex 0 stepped in rounds %v, want %v", steps, tc.want)
			}
			if executed != n-1 {
				t.Fatalf("executed %d rounds, want %d (the token walk)", executed, n-1)
			}
		})
	}
}

// timerRun is everything observable about one run of timerWorkload.
type timerRun struct {
	executed                int
	rounds, messages, words int64
	ctr                     faults.Counters
	peaks                   []int64
	logs                    [][]rcvd
	steps                   int // handler invocations (not part of the equality)
	sim                     *Simulator
}

// timerSide is the side of timerWorkload's torus: 5184 vertices. Round 0
// steps them all, and each offset round's senders (a twentieth of the
// vertices, four edges each) dirty about 1,036 destinations, past
// parallelMin.
const timerSide = 72

// timerWorkload runs a program in which every vertex waits until its own
// start offset and then sends to its neighbors; receivers charge memory and
// answer some arrivals, so traffic overlaps the sleeps. Offsets are bunched
// into waves with idle gaps between them. The handler keeps no state of its
// own (a mid-Run checkpoint needs that). spin selects the reference
// implementation of the wait: Wake every round instead of WakeAt.
func timerWorkload(t *testing.T, spin bool, workers, maxRounds int, opts ...Option) timerRun {
	t.Helper()
	g := graph.Torus(timerSide, timerSide, graph.UnitWeights, rand.New(rand.NewSource(3)))
	return timerWorkloadOn(t, newGraphSim(g, append([]Option{WithWorkers(workers)}, opts...)...), spin, maxRounds)
}

// timerWorkloadOn runs timerWorkload's program on s, a simulator over
// timerWorkload's torus, which may already have run.
func timerWorkloadOn(t *testing.T, s *Simulator, spin bool, maxRounds int) timerRun {
	t.Helper()
	topo := s.Topo()
	n := topo.N()
	offset := func(v int) int { return 40*(v%4) + (v*7)%5 }
	steps := make([]int, n)
	logs := make([][]rcvd, n)
	all := make([]int, n)
	for v := range all {
		all[v] = v
	}
	executed := s.Run(all, maxRounds, func(v int, ctx *Ctx) {
		steps[v]++
		for _, m := range ctx.In() {
			logs[v] = append(logs[v], rcvd{Round: ctx.Round(), From: m.From, Words: m.Words, Payload: m.Payload})
			ctx.Mem().Charge(1)
			if m.Payload.Kind == 1 && (v+m.From+ctx.Round())%3 == 0 {
				ctx.Send(m.From, Payload{Kind: 2, W0: IntWord(v)}, 1+v%3)
			}
		}
		switch o := offset(v); {
		case ctx.Round() < o && spin:
			ctx.Wake()
		case ctx.Round() < o:
			ctx.WakeAt(o)
		case ctx.Round() == o:
			ts, _ := topo.NeighborRange(v)
			for _, to := range ts {
				ctx.Send(int(to), Payload{Kind: 1, W0: IntWord(v*1000 + o)}, 1+(v+int(to))%6)
			}
		}
	})
	res := timerRun{
		executed: executed,
		rounds:   s.Rounds(), messages: s.Messages(), words: s.Words(),
		ctr: s.FaultCounters(), logs: logs, sim: s,
	}
	for v := 0; v < n; v++ {
		res.peaks = append(res.peaks, s.Mem(v).Peak())
		res.steps += steps[v]
	}
	return res
}

func requireTimerRunsEqual(t *testing.T, got, want timerRun) {
	t.Helper()
	if got.executed != want.executed || got.rounds != want.rounds || got.messages != want.messages || got.words != want.words {
		t.Fatalf("counters differ: executed %d vs %d, rounds %d vs %d, messages %d vs %d, words %d vs %d",
			got.executed, want.executed, got.rounds, want.rounds, got.messages, want.messages, got.words, want.words)
	}
	if got.ctr != want.ctr {
		t.Fatalf("fault counters differ: %+v vs %+v", got.ctr, want.ctr)
	}
	if !reflect.DeepEqual(got.peaks, want.peaks) {
		t.Fatal("per-vertex meter peaks differ")
	}
	for v := range want.logs {
		if !reflect.DeepEqual(got.logs[v], want.logs[v]) {
			t.Fatalf("vertex %d delivery log differs:\ngot:  %v\nwant: %v", v, got.logs[v], want.logs[v])
		}
	}
}

// TestWakeAtMatchesSpin: sleeping on a timer and spinning on Wake are
// indistinguishable in every counter, meter and delivery log, at every
// shard count - and the timer version steps far fewer handlers.
func TestWakeAtMatchesSpin(t *testing.T) {
	ref := timerWorkload(t, true, 1, 1000)
	if ref.messages == 0 || ref.executed >= 1000 {
		t.Fatalf("workload: %d messages in %d rounds; want traffic and quiescence", ref.messages, ref.executed)
	}
	for _, workers := range []int{1, 2, 4, 8, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("shards=%d", workers), func(t *testing.T) {
			got := timerWorkload(t, false, workers, 1000)
			requireForked(t, got.sim, workers)
			requireTimerRunsEqual(t, got, ref)
			if got.steps*2 > ref.steps {
				t.Fatalf("timer run stepped %d handlers, spin run %d: sleepers are still spinning", got.steps, ref.steps)
			}
		})
	}
}

// TestWakeAtFastForwardEquivalence: jumping the round counter over idle
// stretches to the next timer gives the same run as stepping every empty
// round, and a traced run (which must step every round) agrees as well.
func TestWakeAtFastForwardEquivalence(t *testing.T) {
	on := timerWorkload(t, false, 2, 1000)
	requireTimerRunsEqual(t, timerWorkload(t, false, 2, 1000, WithIdleFastForward(false)), on)
	requireTimerRunsEqual(t, timerWorkload(t, false, 2, 1000, WithTrace(&collectingSink{})), on)
}

// TestWakeAtPastMaxRounds: a timer beyond maxRounds keeps Run going until
// the budget - as a spinning vertex would - and is then dropped, so the next
// Run does not inherit it.
func TestWakeAtPastMaxRounds(t *testing.T) {
	for _, ff := range []bool{true, false} {
		t.Run(fmt.Sprintf("fastforward=%v", ff), func(t *testing.T) {
			g := graph.Path(3, graph.UnitWeights, rand.New(rand.NewSource(1)))
			s := newGraphSim(g, WithIdleFastForward(ff))
			var steps []int
			executed := s.Run([]int{0}, 10, func(v int, ctx *Ctx) {
				steps = append(steps, ctx.Round())
				ctx.WakeAt(50)
			})
			if executed != 10 || s.Rounds() != 10 || !reflect.DeepEqual(steps, []int{0}) {
				t.Fatalf("executed %d rounds (counter %d), steps %v; want 10, 10, [0]", executed, s.Rounds(), steps)
			}
			executed = s.Run([]int{1}, 100, func(v int, ctx *Ctx) {
				if v != 1 {
					t.Errorf("vertex %d stepped in round %d: a dropped timer fired", v, ctx.Round())
				}
			})
			if executed != 1 {
				t.Fatalf("second Run executed %d rounds, want 1", executed)
			}
		})
	}
}

// TestWakeAtTraceSamplesEveryRound: a traced run emits one round sample per
// simulated round, sleeping stretches included, and counts only the
// vertices that stepped as active.
func TestWakeAtTraceSamplesEveryRound(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights, rand.New(rand.NewSource(1)))
	sink := &collectingSink{}
	s := newGraphSim(g, WithTrace(sink))
	executed := s.Run([]int{0, 3}, 100, func(v int, ctx *Ctx) {
		if ctx.Round() == 0 {
			ctx.WakeAt(5 * (v + 1)) // vertex 0 at round 5, vertex 3 at round 20
		}
	})
	if executed != 21 || len(sink.samples) != executed {
		t.Fatalf("executed %d rounds, %d samples; want 21 and one per round", executed, len(sink.samples))
	}
	for i, sm := range sink.samples {
		want := 0
		switch i {
		case 0:
			want = 2
		case 5, 20:
			want = 1
		}
		if sm.Kind != trace.KindRound || sm.Round != int64(i+1) || sm.Active != want {
			t.Fatalf("sample %d: %+v; want a round sample for round %d with %d active", i, sm, i+1, want)
		}
	}
}

// TestWakeAtCrashKeepsSpinSemantics: under a plan with crash windows WakeAt
// degrades to a per-round Wake, so a vertex that is down during part of its
// sleep drops its wake-up exactly as a spinning vertex does.
func TestWakeAtCrashKeepsSpinSemantics(t *testing.T) {
	plan := &faults.Plan{Seed: 5, Drop: 0.05, Crashes: []faults.Crash{
		{Vertex: 101, From: 20, Until: 30}, // offset 42: asleep through the window
		{Vertex: 46, From: 60, Until: 70},  // offset 82
	}}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", workers), func(t *testing.T) {
			ref := timerWorkload(t, true, workers, 1000, WithFaults(plan))
			requireTimerRunsEqual(t, timerWorkload(t, false, workers, 1000, WithFaults(plan)), ref)
		})
	}
	// A lone sleeper that nothing messages: down in rounds [5, 10) of a sleep
	// until round 20, it steps in rounds 0-4 and never again, spin or timer.
	t.Run("lone-sleeper", func(t *testing.T) {
		lone := &faults.Plan{Crashes: []faults.Crash{{Vertex: 2, From: 5, Until: 10}}}
		for _, spin := range []bool{true, false} {
			g := graph.Path(3, graph.UnitWeights, rand.New(rand.NewSource(1)))
			s := newGraphSim(g, WithFaults(lone))
			var steps []int
			s.Run([]int{2}, 100, func(v int, ctx *Ctx) {
				steps = append(steps, ctx.Round())
				if spin {
					ctx.Wake()
				} else {
					ctx.WakeAt(20)
				}
			})
			if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(steps, want) {
				t.Fatalf("spin=%v: vertex 2 stepped in rounds %v, want %v", spin, steps, want)
			}
		}
	})
}

// TestWakeAtResumeEquivalence: a mid-Run checkpoint cut while timers are
// pending carries them, and the resumed run - at a different shard count -
// equals the uninterrupted one.
func TestWakeAtResumeEquivalence(t *testing.T) {
	const cut = 60 // waves start at 0, 40, 80, 120: later waves are asleep
	ref := timerWorkload(t, false, 1, 1000)
	path := filepath.Join(t.TempDir(), "timers.ckpt")
	ckw := NewCheckpointer(path, cut)
	ckw.MidRun(true)
	_ = timerWorkload(t, false, 1, cut, withCheckpointer(t, ckw))
	if err := ckw.Err(); err != nil {
		t.Fatal(err)
	}
	ckr, err := ResumeCheckpointer(path, cut)
	if err != nil {
		t.Fatal(err)
	}
	got := timerWorkload(t, false, 4, 1000, withCheckpointer(t, ckr))
	if got.executed != ref.executed || got.rounds != ref.rounds || got.messages != ref.messages || got.words != ref.words {
		t.Fatalf("resumed counters: executed %d rounds %d messages %d words %d; straight run %d %d %d %d",
			got.executed, got.rounds, got.messages, got.words, ref.executed, ref.rounds, ref.messages, ref.words)
	}
	if !reflect.DeepEqual(got.peaks, ref.peaks) {
		t.Fatal("per-vertex meter peaks differ after resume")
	}
	for v := range ref.logs {
		var tail []rcvd
		for _, r := range ref.logs[v] {
			if r.Round >= cut {
				tail = append(tail, r)
			}
		}
		if !reflect.DeepEqual(got.logs[v], tail) {
			t.Fatalf("vertex %d post-cut delivery log differs:\nstraight: %v\nresumed:  %v", v, tail, got.logs[v])
		}
	}
}

// TestWakeAtRestoreOnUsedSimulator: restoring a mid-Run checkpoint into a
// simulator whose earlier Run armed the very (round, vertex) timers the
// checkpoint carries must push every one of them, so the resumed run still
// equals the uninterrupted one.
func TestWakeAtRestoreOnUsedSimulator(t *testing.T) {
	const cut = 60 // the waves at rounds 80 and 120 are asleep at the cut
	ref := timerWorkload(t, false, 1, 1000)
	path := filepath.Join(t.TempDir(), "timers.ckpt")
	ckw := NewCheckpointer(path, cut)
	ckw.MidRun(true)
	_ = timerWorkload(t, false, 1, cut, withCheckpointer(t, ckw))
	if err := ckw.Err(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", workers), func(t *testing.T) {
			g := graph.Torus(timerSide, timerSide, graph.UnitWeights, rand.New(rand.NewSource(3)))
			s := newGraphSim(g, WithWorkers(workers))
			requireTimerRunsEqual(t, timerWorkloadOn(t, s, false, 1000), ref)
			ckr, err := ResumeCheckpointer(path, cut)
			if err != nil {
				t.Fatal(err)
			}
			if err := ckr.Attach(s); err != nil {
				t.Fatal(err)
			}
			got := timerWorkloadOn(t, s, false, 1000)
			if got.executed != ref.executed || got.rounds != ref.rounds || got.messages != ref.messages || got.words != ref.words {
				t.Fatalf("resumed counters: executed %d rounds %d messages %d words %d; straight run %d %d %d %d",
					got.executed, got.rounds, got.messages, got.words, ref.executed, ref.rounds, ref.messages, ref.words)
			}
			if !reflect.DeepEqual(got.peaks, ref.peaks) {
				t.Fatal("per-vertex meter peaks differ after resume")
			}
		})
	}
}

// timerProbe is a trace sink that runs check after every round, once the
// round's timers are pushed and the next round's are popped.
type timerProbe struct{ check func() }

func (p *timerProbe) RoundSample(trace.RoundSample) { p.check() }

// TestWakeAtRearmKeepsOneTimer: sleepers whose neighbours message them in
// every round of a long chatter re-arm the same target from each
// message-driven step. The heap holds one entry per (round, vertex)
// throughout - never more entries than sleepers - and every vertex still
// acts in exactly the rounds, and receives exactly the messages, that it
// does when it spins on Wake, at every shard count. The program runs twice
// on one simulator: the second Run must not inherit the first one's armed
// rounds.
func TestWakeAtRearmKeepsOneTimer(t *testing.T) {
	g := graph.Torus(8, 8, graph.UnitWeights, rand.New(rand.NewSource(4)))
	n := g.N()
	chatty := func(v int) bool { return v%4 == 0 }
	target := func(v int) int { return 40 + 9*(v%5) }
	sleepers := 0
	for v := 0; v < n; v++ {
		if !chatty(v) {
			sleepers++
		}
	}
	type result struct {
		executed int
		acted    [][]int
		logs     [][]rcvd
	}
	run := func(t *testing.T, spin bool, workers int) result {
		var s *Simulator
		probe := &timerProbe{}
		s = newGraphSim(g, WithWorkers(workers), WithTrace(probe))
		peak := 0
		probe.check = func() {
			seen := map[timer]bool{}
			for _, tm := range s.timers {
				if seen[tm] {
					t.Fatalf("timer (round %d, vertex %d) is in the heap twice", tm.round, tm.v)
				}
				seen[tm] = true
			}
			peak = max(peak, len(s.timers))
		}
		all := make([]int, n)
		for v := range all {
			all[v] = v
		}
		var res result
		for rep := 0; rep < 2; rep++ {
			res = result{acted: make([][]int, n), logs: make([][]rcvd, n)}
			res.executed = s.Run(all, 1000, func(v int, ctx *Ctx) {
				for _, m := range ctx.In() {
					res.logs[v] = append(res.logs[v], rcvd{Round: ctx.Round(), From: m.From, Words: m.Words, Payload: m.Payload})
				}
				if chatty(v) {
					if ctx.Round() < 30 {
						for _, nb := range neighbors(s.Topo(), v) {
							ctx.Send(int(nb), Payload{Kind: 1, W0: IntWord(v)}, 1)
						}
						ctx.Wake()
					}
					return
				}
				switch o := target(v); {
				case ctx.Round() < o && spin:
					ctx.Wake()
				case ctx.Round() < o:
					ctx.WakeAt(o)
				case ctx.Round() == o:
					res.acted[v] = append(res.acted[v], ctx.Round())
					for _, nb := range neighbors(s.Topo(), v) {
						ctx.Send(int(nb), Payload{Kind: 2, W0: IntWord(v)}, 1)
					}
				}
			})
		}
		if !spin && (peak == 0 || peak > sleepers) {
			t.Fatalf("timer heap peaked at %d entries for %d sleepers", peak, sleepers)
		}
		return res
	}
	ref := run(t, true, 1)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", workers), func(t *testing.T) {
			got := run(t, false, workers)
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("timer run differs from the spin reference: executed %d vs %d, acted %v vs %v",
					got.executed, ref.executed, got.acted, ref.acted)
			}
		})
	}
}

// withCheckpointer attaches ck to the simulator under construction.
func withCheckpointer(t testing.TB, ck *Checkpointer) Option {
	return func(s *Simulator) {
		if err := ck.Attach(s); err != nil {
			t.Fatalf("Attach: %v", err)
		}
	}
}

// TestWakeAtCheckpointValidation: restore rejects a timer for a vertex out
// of range or for a round the checkpoint has already executed.
func TestWakeAtCheckpointValidation(t *testing.T) {
	const cut = 60
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ckpt")
	ckw := NewCheckpointer(good, cut)
	ckw.MidRun(true)
	_ = timerWorkload(t, false, 1, cut, withCheckpointer(t, ckw))
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
	// The section ends with the timer block: count, then (round, vertex)
	// pairs; corrupt the last timer.
	for name, last := range map[string][2]uint64{
		"vertex-out-of-range": {words[len(words)-2], timerSide * timerSide},
		"round-already-run":   {cut, words[len(words)-1]},
	} {
		t.Run(name, func(t *testing.T) {
			bad := append([]uint64(nil), words...)
			bad[len(bad)-2], bad[len(bad)-1] = last[0], last[1]
			tampered := &trace.Checkpoint{Meta: c.Meta}
			tampered.AddSection(EngineSection, bad)
			path := filepath.Join(dir, name+".ckpt")
			if err := trace.WriteCheckpointFile(path, tampered); err != nil {
				t.Fatal(err)
			}
			ckr, err := ResumeCheckpointer(path, cut)
			if err != nil {
				t.Fatal(err)
			}
			g := graph.Torus(timerSide, timerSide, graph.UnitWeights, rand.New(rand.NewSource(3)))
			if err := ckr.Attach(newGraphSim(g)); err == nil || !strings.Contains(err.Error(), "timer") {
				t.Fatalf("Attach with a bad timer: err=%v", err)
			}
		})
	}
}

// TestWakeAtCheckpointTimersUnique: a re-arm of an older round slips a
// duplicate past the one-slot dedupe - vertex 0 arms round 50, a message
// wakes it to arm round 40, and round 40 arms 50 again - but the checkpoint
// writes each pending (round, vertex) once.
func TestWakeAtCheckpointTimersUnique(t *testing.T) {
	const cut = 45
	g := graph.Path(3, graph.UnitWeights, rand.New(rand.NewSource(1)))
	path := filepath.Join(t.TempDir(), "dup.ckpt")
	ck := NewCheckpointer(path, cut)
	ck.MidRun(true)
	s := newGraphSim(g, withCheckpointer(t, ck))
	s.Run([]int{0, 1}, cut+1, func(v int, ctx *Ctx) {
		switch r := ctx.Round(); {
		case v == 1 && r == 0:
			ctx.WakeAt(4)
		case v == 1 && r == 4:
			ctx.Send(0, Payload{}, 1)
		case v == 0 && (r == 0 || r == 40):
			ctx.WakeAt(50)
		case v == 0:
			ctx.WakeAt(40)
		}
	})
	if err := ck.Err(); err != nil {
		t.Fatal(err)
	}
	c, err := trace.ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	words, _, err := c.Section(EngineSection)
	if err != nil {
		t.Fatal(err)
	}
	if tail := words[len(words)-3:]; !reflect.DeepEqual(tail, []uint64{1, 50, 0}) || words[len(words)-5] == 50 {
		t.Fatalf("timer block ends %v; want the single timer (round 50, vertex 0)", words[len(words)-5:])
	}
}

// TestEngineV1CheckpointRestores: a version-1 engine section - the layout
// before timers, which is version 2 without the trailing timer block -
// still resumes to the uninterrupted run.
func TestEngineV1CheckpointRestores(t *testing.T) {
	const cut, total = 5, 60
	ref := runSnapshotFlood(t, 1, total, nil, nil)
	dir := t.TempDir()
	v2 := filepath.Join(dir, "v2.ckpt")
	ckw := NewCheckpointer(v2, cut)
	_ = runSnapshotFlood(t, 1, cut, ckw, nil)
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
	if words[0] != 2 || words[len(words)-1] != 0 {
		t.Fatalf("flood checkpoint: version %d, timer count %d; want version 2 with no timers", words[0], words[len(words)-1])
	}
	old := append([]uint64{1}, words[1:len(words)-1]...)
	v1 := &trace.Checkpoint{Meta: c.Meta}
	v1.AddSection(EngineSection, old)
	path := filepath.Join(dir, "v1.ckpt")
	if err := trace.WriteCheckpointFile(path, v1); err != nil {
		t.Fatal(err)
	}
	ckr, err := ResumeCheckpointer(path, cut)
	if err != nil {
		t.Fatal(err)
	}
	got := runSnapshotFlood(t, 4, total, ckr, nil)
	if got.executed != ref.executed || got.rounds != ref.rounds || got.messages != ref.messages || got.words != ref.words {
		t.Fatalf("v1 resume: executed %d rounds %d messages %d words %d; straight run %d %d %d %d",
			got.executed, got.rounds, got.messages, got.words, ref.executed, ref.rounds, ref.messages, ref.words)
	}
	if !reflect.DeepEqual(got.peak, ref.peak) {
		t.Fatal("per-vertex meter peaks differ after a v1 resume")
	}
}

// sleepers is a bound-method step program for the allocation test: every
// vertex sleeps until a per-vertex round, then sends one word to the next
// vertex.
type sleepers struct{ n int }

func (p *sleepers) step(v int, ctx *Ctx) {
	if o := 3 * (v % 17); ctx.Round() < o {
		ctx.WakeAt(o)
	} else if ctx.Round() == o && v+1 < p.n {
		ctx.Send(v+1, Payload{W0: IntWord(v)}, 1)
	}
}

// TestWakeAtSteadyStateAllocFree: once the timer heap and worklists are
// warm, a timer-heavy Run allocates nothing.
func TestWakeAtSteadyStateAllocFree(t *testing.T) {
	const n = 512
	g := graph.Path(n, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := newGraphSim(g, WithWorkers(1))
	all := make([]int, n)
	for v := range all {
		all[v] = v
	}
	p := &sleepers{n: n}
	var fn StepFunc = p.step
	run := func() { s.Run(all, 1000, fn) }
	run()
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("timer-heavy Run allocates %v/op, want 0", allocs)
	}
}
