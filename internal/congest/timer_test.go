package congest

// WakeAt timer semantics: a sleeper steps exactly at its round, a timer
// program is indistinguishable from the same program spinning on Wake (at
// every shard count, with the idle fast-forward on or off, and under crash
// windows), timers past maxRounds are dropped, tracing still samples every
// round, and a timer-heavy steady state allocates nothing.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
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
			s := NewTopo(g)
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
// own. spin selects the reference
// implementation of the wait: Wake every round instead of WakeAt.
func timerWorkload(t *testing.T, spin bool, workers, maxRounds int, opts ...Option) timerRun {
	t.Helper()
	g := graph.Torus(timerSide, timerSide, 1, rand.New(rand.NewSource(3)))
	return timerWorkloadOn(t, NewTopo(g, append([]Option{WithWorkers(workers)}, opts...)...), spin, maxRounds)
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
			s := NewTopo(g, WithIdleFastForward(ff))
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

// TestWakeAtTraceSamplesCoverEveryRound: a traced run fast-forwards the
// sleeping stretches like an untraced one and covers each with one idle
// sample, so its samples still account for every simulated round, and round
// samples count only the vertices that stepped as active.
func TestWakeAtTraceSamplesCoverEveryRound(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights, rand.New(rand.NewSource(1)))
	sink := &collectingSink{}
	s := NewTopo(g, WithTrace(sink))
	executed := s.Run([]int{0, 3}, 100, func(v int, ctx *Ctx) {
		if ctx.Round() == 0 {
			ctx.WakeAt(5 * (v + 1)) // vertex 0 at round 5, vertex 3 at round 20
		}
	})
	want := []trace.RoundSample{
		{Round: 1, Rounds: 1, Kind: trace.KindRound, Active: 2},
		{Round: 5, Rounds: 4, Kind: trace.KindIdle},
		{Round: 6, Rounds: 1, Kind: trace.KindRound, Active: 1},
		{Round: 20, Rounds: 14, Kind: trace.KindIdle},
		{Round: 21, Rounds: 1, Kind: trace.KindRound, Active: 1},
	}
	if executed != 21 || len(sink.samples) != len(want) {
		t.Fatalf("executed %d rounds, %d samples %+v; want 21 rounds in %d samples",
			executed, len(sink.samples), sink.samples, len(want))
	}
	for i, sm := range sink.samples {
		sm.MemMax, sm.MemMean, sm.Backlog = 0, 0, 0
		if sm != want[i] {
			t.Fatalf("sample %d: %+v; want %+v", i, sm, want[i])
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
			s := NewTopo(g, WithFaults(lone))
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

// TestWakeAtRestoreOnUsedSimulator: every Run restores a fresh timer frame
// on a used simulator. A first WakeAt unit arms a timer slot per sleeping
// vertex and drops its timers when it returns; the second unit asks for the
// same rounds again, and those requests must arm new timers rather than
// match the stale slots. Under a drop/delay plan, whose fault cursors carry
// from one unit to the next, the second WakeAt unit must equal the second
// unit of the spin reference (which arms no timers) at every width.
func TestWakeAtRestoreOnUsedSimulator(t *testing.T) {
	plan := &faults.Plan{Seed: 9, Drop: 0.1, Delay: 1} // no crash windows: WakeAt keeps its timers
	ref := timerWorkload(t, true, 1, 1000, WithFaults(plan))
	ref = timerWorkloadOn(t, ref.sim, true, 1000) // the second unit
	if !ref.ctr.Any() {
		t.Fatal("fault plan injected nothing; the carried fault cursors go untested")
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", workers), func(t *testing.T) {
			first := timerWorkload(t, false, workers, 1000, WithFaults(plan))
			got := timerWorkloadOn(t, first.sim, false, 1000)
			requireForked(t, got.sim, workers)
			requireTimerRunsEqual(t, got, ref)
			if got.steps >= ref.steps {
				t.Fatalf("second WakeAt unit stepped %d handlers, spin %d: the timers did not sleep", got.steps, ref.steps)
			}
		})
	}
}

// timerProbe is a trace sink that runs check after every round, once the
// round's timers are pushed and the next round's are popped.
type timerProbe struct{ check func() }

func (p *timerProbe) RoundSample(trace.RoundSample) { p.check() }
func (p *timerProbe) Span(trace.SpanEvent)          {}

// TestWakeAtRearmKeepsOneTimer: sleepers whose neighbours message them in
// every round of a long chatter re-arm the same target from each
// message-driven step. The heap holds one entry per (round, vertex)
// throughout - never more entries than sleepers - and every vertex still
// acts in exactly the rounds, and receives exactly the messages, that it
// does when it spins on Wake, at every shard count. The program runs twice
// on one simulator: the second Run must not inherit the first one's armed
// rounds.
func TestWakeAtRearmKeepsOneTimer(t *testing.T) {
	g := graph.Torus(8, 8, 1, rand.New(rand.NewSource(4)))
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
		s = NewTopo(g, WithWorkers(workers), WithTrace(probe))
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
	s := NewTopo(g, WithWorkers(1))
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
