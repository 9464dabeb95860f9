package congest

// Fault-injection engine semantics: the WithFaults(nil) A/B guarantee (the
// clean path is byte-identical with and without the option), drop/retry
// budgets, delay pacing, duplication, crash-stop and crash-recover windows,
// partitions, worker-count invariance under an active plan (also across
// two Runs on one simulator), and the Broadcast/Convergecast retry
// accounting.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"lowmemroute/internal/faults"
	"lowmemroute/internal/graph"
)

// floodResult captures everything observable about a flood workload run.
type floodResult struct {
	rounds, messages, words int64
	peaks                   []int64
	logs                    [][]rcvd
	ctr                     faults.Counters
}

// floodSide is the side of runFlood's torus: 1089 vertices, so round 0
// forks both round phases at any worker count above one.
const floodSide = 33

// runFlood executes the worker-invariance flood workload under opts.
func runFlood(workers, floodRounds int, opts ...Option) floodResult {
	res, _ := runFloodSim(workers, floodRounds, opts...)
	return res
}

// runFloodSim is runFlood, also returning the simulator.
func runFloodSim(workers, floodRounds int, opts ...Option) (floodResult, *Simulator) {
	return runFloodRuns(workers, floodRounds, 1, opts...)
}

// runFloodRuns runs the flood runs times in a row on one simulator, the
// message sizes shifted by the run's index, and returns the final engine
// state with the last Run's delivery logs. Per-edge fault cursors carry
// from one Run to the next, as they do between build phases.
func runFloodRuns(workers, floodRounds, runs int, opts ...Option) (floodResult, *Simulator) {
	g := graph.Torus(floodSide, floodSide, 1, rand.New(rand.NewSource(3)))
	s := NewTopo(g, append([]Option{WithWorkers(workers)}, opts...)...)
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	var logs [][]rcvd
	for run := 0; run < runs; run++ {
		logs = make([][]rcvd, g.N())
		s.Run(all, 64*floodRounds+64, func(v int, ctx *Ctx) {
			for _, m := range ctx.In() {
				logs[v] = append(logs[v], rcvd{Round: ctx.Round(), From: m.From, Words: m.Words, Payload: m.Payload})
			}
			if ctx.Round() < floodRounds {
				for _, nb := range neighbors(s.Topo(), v) {
					ctx.Send(int(nb), Payload{W0: IntWord(v*1000 + ctx.Round())}, 1+(v+int(nb)+ctx.Round()+run)%7)
				}
				ctx.Wake()
			}
		})
	}
	res := floodResult{rounds: s.Rounds(), messages: s.Messages(), words: s.Words(), logs: logs, ctr: s.FaultCounters()}
	res.peaks = make([]int64, g.N())
	for v := 0; v < g.N(); v++ {
		res.peaks[v] = s.Mem(v).Peak()
	}
	return res, s
}

// dormantPlan is a non-empty plan none of whose faults fire: its crash and
// partition windows open at round 2^40, and it draws no link fault. The
// simulator runs every fault hook under it.
func dormantPlan() *faults.Plan {
	const never = 1 << 40
	return &faults.Plan{
		Seed:       9,
		Crashes:    []faults.Crash{{Vertex: 5, From: never, Until: faults.Forever}},
		Partitions: []faults.Partition{{Members: []int{0, 1, floodSide}, From: never, Until: faults.Forever}},
	}
}

// TestWithFaultsNilIsIdentical is the no-plan A/B guarantee: constructing
// with WithFaults(nil) — or with an empty plan — leaves every observable
// output equal to a simulator built without the option. So does a plan
// whose hooks all run but never fire, for the flood and for the analytic
// Broadcast and Convergecast.
func TestWithFaultsNilIsIdentical(t *testing.T) {
	base := runFlood(4, 5)
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"nil-plan", WithFaults(nil)},
		{"empty-plan", WithFaults(&faults.Plan{})},
		{"seed-only-plan", WithFaults(&faults.Plan{Seed: 9, RetryBudget: 3})},
		{"dormant-plan", WithFaults(dormantPlan())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runFlood(4, 5, tc.opt)
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("run with %s differs from run without WithFaults", tc.name)
			}
		})
	}
	t.Run("dormant-plan-analytic", func(t *testing.T) {
		g := graph.Torus(4, 4, 1, rand.New(rand.NewSource(2)))
		run := func(opts ...Option) bcastRun {
			s := NewTopo(g, opts...)
			var log [][2]int
			for _, batch := range [][]BroadcastMsg{bcastMsgs(), bcastMsgs()[:4]} {
				s.Broadcast(batch, func(v int, d *Delivery) {
					for j := 0; j < d.Len(); j++ {
						if m := d.At(j); m != nil {
							log = append(log, [2]int{v, WordInt(m.Payload.W0)})
							s.Mem(v).Charge(charge(v, j))
						}
					}
				})
				s.Convergecast(3, batch, func(m *BroadcastMsg) {
					log = append(log, [2]int{3, WordInt(m.Payload.W0)})
				})
			}
			return observe(s, log)
		}
		if got, want := run(WithFaults(dormantPlan())), run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("dormant plan changed Broadcast/Convergecast:\n got %+v\nwant %+v", got, want)
		}
	})
}

// TestFaultWorkerCountInvariance runs a plan with every fault class enabled
// at several worker widths: fault decisions are stateless hashes, so logs,
// counters and meters must be identical regardless of delivery sharding.
func TestFaultWorkerCountInvariance(t *testing.T) {
	plan := &faults.Plan{
		Seed: 11, Drop: 0.2, Delay: 2, Duplicate: 0.1,
		Crashes:    []faults.Crash{{Vertex: 5, From: 3, Until: 9}},
		Partitions: []faults.Partition{{Members: []int{0, 1, floodSide, floodSide + 1}, From: 4, Until: 12}},
	}
	base := runFlood(1, 5, WithFaults(plan))
	if !base.ctr.Any() {
		t.Fatal("plan injected no faults; test is vacuous")
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, s := runFloodSim(workers, 5, WithFaults(plan))
			requireForked(t, s, workers)
			if got.ctr != base.ctr {
				t.Fatalf("fault counters differ from workers=1: %+v vs %+v", got.ctr, base.ctr)
			}
			if !reflect.DeepEqual(got, base) {
				t.Fatal("observable run state differs from workers=1 under the same fault plan")
			}
		})
	}
}

// TestRunResumeEquivalence: a second Run resumes where the first left off.
// Two consecutive Runs on one simulator, clean and under a
// drop/delay/duplicate plan, give the same counters, fault tallies, meter
// peaks and second-Run delivery logs at every shard count as the one-shard
// reference. The second Run's faults depend on the cursors the first one
// left, so a shard count that leaked into that carried state would show here.
func TestRunResumeEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan *faults.Plan
	}{
		{"clean", nil},
		{"faulty", &faults.Plan{Seed: 9, Drop: 0.1, Delay: 1, Duplicate: 0.1}},
	} {
		ref, _ := runFloodRuns(1, 10, 2, WithFaults(tc.plan))
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, workers), func(t *testing.T) {
				if tc.plan != nil && !ref.ctr.Any() {
					t.Fatal("fault plan injected nothing; faulty variant is vacuous")
				}
				got, s := runFloodRuns(workers, 10, 2, WithFaults(tc.plan))
				requireForked(t, s, workers)
				if got.ctr != ref.ctr {
					t.Fatalf("fault counters differ: %+v vs %+v", got.ctr, ref.ctr)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("counters, meter peaks or second-Run delivery logs differ between shards=1 and shards=%d", workers)
				}
			})
		}
	}
}

// TestFaultSameSeedSameRun: equal seeds reproduce the exact fault pattern;
// a different seed produces a different one.
func TestFaultSameSeedSameRun(t *testing.T) {
	mk := func(seed uint64) floodResult {
		return runFlood(4, 5, WithFaults(&faults.Plan{Seed: seed, Drop: 0.2, Delay: 1, Duplicate: 0.1}))
	}
	a, b, c := mk(1), mk(1), mk(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal fault seeds must reproduce identical runs")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different fault seeds produced identical runs (suspicious)")
	}
}

// twoVertexRun sends `count` one-word messages 0→1 and returns the receive
// log and the simulator.
func twoVertexRun(t *testing.T, count, maxRounds int, opts ...Option) ([]rcvd, *Simulator) {
	t.Helper()
	g := graph.Path(2, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := NewTopo(g, opts...)
	var log []rcvd
	s.Run([]int{0}, maxRounds, func(v int, ctx *Ctx) {
		for _, m := range ctx.In() {
			log = append(log, rcvd{Round: ctx.Round(), From: m.From, Words: m.Words, Payload: m.Payload})
		}
		if v == 0 && ctx.Round() == 0 {
			for i := 0; i < count; i++ {
				ctx.Send(1, Payload{W0: uint64(i)}, 1)
			}
		}
	})
	return log, s
}

// TestFaultDropRetriesDeliver: with drop well below certainty and the
// default budget, every message still arrives (in FIFO order), at the cost
// of extra rounds and counted retransmissions.
func TestFaultDropRetriesDeliver(t *testing.T) {
	const count = 40
	clean, _ := twoVertexRun(t, count, 1000)
	faulty, s := twoVertexRun(t, count, 1000, WithFaults(&faults.Plan{Seed: 5, Drop: 0.4}))
	if len(clean) != count || len(faulty) != count {
		t.Fatalf("deliveries: clean %d, faulty %d, want %d", len(clean), len(faulty), count)
	}
	for i := range faulty {
		if faulty[i].Payload.W0 != clean[i].Payload.W0 {
			t.Fatalf("message %d out of order under drops: %v vs %v", i, faulty[i].Payload, clean[i].Payload)
		}
	}
	ctr := s.FaultCounters()
	if ctr.Dropped == 0 || ctr.Retried == 0 {
		t.Fatalf("drop=0.4 over %d messages fired no drops: %+v", count, ctr)
	}
	if ctr.Lost != 0 {
		t.Fatalf("default budget must make loss (p=0.4^9) unobservable here: %+v", ctr)
	}
	if ctr.Dropped != ctr.Retried+ctr.Lost {
		t.Fatalf("counter invariant Dropped == Retried + Lost violated: %+v", ctr)
	}
	if faulty[len(faulty)-1].Round <= clean[len(clean)-1].Round {
		t.Fatal("retransmissions must delay completion")
	}
}

// TestFaultDropBudgetExhaustion: with certain drop and no retries, every
// message is Lost and nothing is delivered.
func TestFaultDropBudgetExhaustion(t *testing.T) {
	log, s := twoVertexRun(t, 10, 1000, WithFaults(&faults.Plan{Drop: 1, RetryBudget: -1}))
	if len(log) != 0 {
		t.Fatalf("drop=1 with no retries delivered %d messages", len(log))
	}
	ctr := s.FaultCounters()
	if ctr.Lost != 10 || ctr.Retried != 0 || ctr.Dropped != 10 {
		t.Fatalf("counters = %+v, want 10 lost, 10 dropped, 0 retried", ctr)
	}

	log, s = twoVertexRun(t, 10, 1000, WithFaults(&faults.Plan{Drop: 1, RetryBudget: 2}))
	if len(log) != 0 {
		t.Fatalf("drop=1 delivered %d messages", len(log))
	}
	ctr = s.FaultCounters()
	if ctr.Lost != 10 || ctr.Retried != 20 || ctr.Dropped != 30 {
		t.Fatalf("counters = %+v, want lost 10, retried 20, dropped 30", ctr)
	}
}

// TestFaultDelay: a single message with Delay=d arrives exactly DelayRounds
// later than clean, FIFO order preserved.
func TestFaultDelay(t *testing.T) {
	const count = 20
	clean, _ := twoVertexRun(t, count, 1000)
	faulty, s := twoVertexRun(t, count, 1000, WithFaults(&faults.Plan{Seed: 3, Delay: 4}))
	ctr := s.FaultCounters()
	if ctr.DelayRounds == 0 {
		t.Fatal("delay=4 over 20 messages injected no delay")
	}
	if len(faulty) != count {
		t.Fatalf("delivered %d, want %d", len(faulty), count)
	}
	for i := range faulty {
		if faulty[i].Payload.W0 != clean[i].Payload.W0 {
			t.Fatalf("message %d out of order under delays", i)
		}
	}
	// Head-of-line delays push completion later, but a delay round consumed
	// while the batch budget was already spent overlaps with normal pacing,
	// so the shift is bounded by — not equal to — the injected total.
	last, cleanLast := faulty[count-1].Round, clean[count-1].Round
	if last <= cleanLast || last > cleanLast+int(ctr.DelayRounds) {
		t.Fatalf("last delivery at round %d, want in (%d, %d]",
			last, cleanLast, cleanLast+int(ctr.DelayRounds))
	}
}

// TestFaultDelayExactSingleMessage: with one message on an idle edge there
// is nothing to overlap with, so the arrival shifts by exactly the rolled
// delay.
func TestFaultDelayExactSingleMessage(t *testing.T) {
	clean, _ := twoVertexRun(t, 1, 1000)
	faulty, s := twoVertexRun(t, 1, 1000, WithFaults(&faults.Plan{Seed: 1, Delay: 6}))
	ctr := s.FaultCounters()
	if len(clean) != 1 || len(faulty) != 1 {
		t.Fatalf("deliveries: clean %d, faulty %d, want 1 each", len(clean), len(faulty))
	}
	if want := clean[0].Round + int(ctr.DelayRounds); faulty[0].Round != want {
		t.Fatalf("arrival at round %d, want %d (clean %d + rolled delay %d)",
			faulty[0].Round, want, clean[0].Round, ctr.DelayRounds)
	}
}

// TestFaultDuplicate: certain duplication delivers every message exactly
// twice, back to back; handlers see both copies.
func TestFaultDuplicate(t *testing.T) {
	const count = 5
	log, s := twoVertexRun(t, count, 1000, WithFaults(&faults.Plan{Duplicate: 1}))
	if len(log) != 2*count {
		t.Fatalf("delivered %d messages, want %d (every one duplicated)", len(log), 2*count)
	}
	for i := 0; i < count; i++ {
		if log[2*i].Payload.W0 != log[2*i+1].Payload.W0 {
			t.Fatalf("duplicate %d not adjacent to original", i)
		}
	}
	if ctr := s.FaultCounters(); ctr.Duplicated != count {
		t.Fatalf("Duplicated = %d, want %d", ctr.Duplicated, count)
	}
	if s.Messages() != 2*count {
		t.Fatalf("global message counter %d, want %d", s.Messages(), 2*count)
	}
}

// TestFaultDuplicateExt: a duplicated message's copy shares its original's
// body, and both read back equal contents.
func TestFaultDuplicateExt(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := NewTopo(g, WithFaults(&faults.Plan{Duplicate: 1}), WithEdgeCapacity(0))
	var got [][]uint64
	s.Run([]int{0}, 100, func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			ctx.Send(1, Payload{Kind: 1}, 4, 7, 8, 9)
		}
		in := ctx.In()
		for i := range in {
			got = append(got, ctx.Body(&in[i], nil))
		}
	})
	if len(got) != 2 {
		t.Fatalf("delivered %d copies, want 2", len(got))
	}
	want := []uint64{7, 8, 9}
	for i, body := range got {
		if !reflect.DeepEqual(body, want) {
			t.Fatalf("copy %d body = %v, want %v", i, body, want)
		}
	}
}

// TestFaultCrashForever: a permanently crashed vertex never executes, and
// traffic to it is discarded (no spin until maxRounds).
func TestFaultCrashForever(t *testing.T) {
	g := graph.Path(3, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := NewTopo(g, WithFaults(&faults.Plan{Crashes: []faults.Crash{{Vertex: 1}}}))
	stepped := make([]int, 3)
	executed := s.Run([]int{0, 1, 2}, 1000, func(v int, ctx *Ctx) {
		stepped[v]++
		if ctx.Round() == 0 {
			for _, nb := range neighbors(s.Topo(), v) {
				ctx.Send(int(nb), Payload{W0: IntWord(v)}, 1)
			}
		}
	})
	if stepped[1] != 0 {
		t.Fatalf("crashed vertex executed %d times", stepped[1])
	}
	if stepped[0] == 0 || stepped[2] == 0 {
		t.Fatal("live vertices must execute")
	}
	if executed >= 1000 {
		t.Fatal("run spun to maxRounds: traffic to a forever-crashed vertex must be discarded")
	}
	if ctr := s.FaultCounters(); ctr.Discarded != 2 {
		t.Fatalf("Discarded = %d, want 2 (one message from each neighbor)", ctr.Discarded)
	}
}

// TestFaultCrashRecover: traffic to a vertex in a finite crash window is
// held, not lost, and delivered after recovery.
func TestFaultCrashRecover(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights, rand.New(rand.NewSource(1)))
	// Vertex 1 is down for global rounds [1, 6): the message sent in round 0
	// (arriving at round 1) must wait for recovery.
	s := NewTopo(g, WithFaults(&faults.Plan{Crashes: []faults.Crash{{Vertex: 1, From: 1, Until: 6}}}))
	var log []rcvd
	s.Run([]int{0}, 1000, func(v int, ctx *Ctx) {
		for _, m := range ctx.In() {
			log = append(log, rcvd{Round: ctx.Round(), From: m.From, Words: m.Words, Payload: m.Payload})
		}
		if v == 0 && ctx.Round() == 0 {
			ctx.Send(1, Payload{W0: 42}, 1)
		}
	})
	if len(log) != 1 {
		t.Fatalf("delivered %d messages, want 1 (held through the crash window)", len(log))
	}
	if log[0].Round != 6 {
		t.Fatalf("held message arrived at round %d, want 6 (first round after recovery)", log[0].Round)
	}
	if ctr := s.FaultCounters(); ctr.Discarded != 0 || ctr.Lost != 0 {
		t.Fatalf("finite crash window must not lose messages: %+v", ctr)
	}
}

// TestFaultPartition: a permanent partition discards cross-boundary traffic
// but leaves same-side traffic untouched.
func TestFaultPartition(t *testing.T) {
	g := graph.Path(3, graph.UnitWeights, rand.New(rand.NewSource(1))) // 0-1-2
	s := NewTopo(g, WithFaults(&faults.Plan{Partitions: []faults.Partition{{Members: []int{0}}}}))
	var log []rcvd
	s.Run([]int{0, 1}, 1000, func(v int, ctx *Ctx) {
		for _, m := range ctx.In() {
			log = append(log, rcvd{Round: ctx.Round(), From: m.From, Words: m.Words, Payload: m.Payload})
		}
		if ctx.Round() == 0 {
			for _, nb := range neighbors(s.Topo(), v) {
				ctx.Send(int(nb), Payload{W0: IntWord(v)}, 1)
			}
		}
	})
	// 0→1 and 1→0 cross the cut and are discarded; 1→2 survives.
	if len(log) != 1 || log[0].From != 1 {
		t.Fatalf("deliveries = %+v, want exactly the same-side message 1→2", log)
	}
	if ctr := s.FaultCounters(); ctr.Discarded != 2 {
		t.Fatalf("Discarded = %d, want 2", ctr.Discarded)
	}
}

// TestFaultPartitionHeals: a finite partition window holds traffic and
// releases it when the window closes.
func TestFaultPartitionHeals(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := NewTopo(g, WithFaults(&faults.Plan{Partitions: []faults.Partition{{Members: []int{0}, From: 0, Until: 4}}}))
	var log []rcvd
	s.Run([]int{0}, 1000, func(v int, ctx *Ctx) {
		for _, m := range ctx.In() {
			log = append(log, rcvd{Round: ctx.Round(), From: m.From, Words: m.Words, Payload: m.Payload})
		}
		if v == 0 && ctx.Round() == 0 {
			ctx.Send(1, Payload{W0: 7}, 1)
		}
	})
	if len(log) != 1 {
		t.Fatalf("delivered %d messages, want 1 after the partition heals", len(log))
	}
	if log[0].Round != 4 {
		t.Fatalf("delivery at round %d, want 4 (first round past the window)", log[0].Round)
	}
}

// TestBroadcastFaultRetry: broadcast deliveries retry within the budget (every
// message still reaches every vertex, extra rounds and wire charged); with
// certain drop and a tiny budget, deliveries are Lost and withheld.
func TestBroadcastFaultRetry(t *testing.T) {
	g := graph.Torus(4, 4, 1, rand.New(rand.NewSource(2)))

	clean := NewTopo(g)
	var cleanCalls int
	clean.Broadcast([]BroadcastMsg{{Origin: 0, Words: 2}, {Origin: 3, Words: 2}},
		func(v int, d *Delivery) { cleanCalls += delivered(d) })

	s := NewTopo(g, WithFaults(&faults.Plan{Seed: 8, Drop: 0.3}))
	var calls int
	s.Broadcast([]BroadcastMsg{{Origin: 0, Words: 2}, {Origin: 3, Words: 2}},
		func(v int, d *Delivery) { calls += delivered(d) })
	if calls != cleanCalls {
		t.Fatalf("faulty broadcast delivered %d messages, clean delivered %d", calls, cleanCalls)
	}
	ctr := s.FaultCounters()
	if ctr.Dropped == 0 || ctr.Retried != ctr.Dropped {
		t.Fatalf("drop=0.3 broadcast: %+v (want drops, all retried)", ctr)
	}
	if s.Rounds() <= clean.Rounds() {
		t.Fatalf("faulty broadcast rounds %d not above clean %d", s.Rounds(), clean.Rounds())
	}
	if s.Messages() <= clean.Messages() {
		t.Fatalf("faulty broadcast messages %d not above clean %d", s.Messages(), clean.Messages())
	}

	s = NewTopo(g, WithFaults(&faults.Plan{Drop: 1, RetryBudget: 1}))
	calls = 0
	s.Broadcast([]BroadcastMsg{{Origin: 0, Words: 2}}, func(v int, d *Delivery) { calls += delivered(d) })
	if calls != 1 {
		t.Fatalf("drop=1 broadcast delivered %d messages, want 1 (only the origin's own copy)", calls)
	}
	if ctr := s.FaultCounters(); ctr.Lost != int64(g.N()-1) {
		t.Fatalf("Lost = %d, want %d", ctr.Lost, g.N()-1)
	}
}

// delivered counts the messages of a broadcast that reached the vertex.
func delivered(d *Delivery) int {
	c := 0
	for j := 0; j < d.Len(); j++ {
		if d.At(j) != nil {
			c++
		}
	}
	return c
}

// TestConvergecastFaultRetry mirrors the broadcast test for the sink side.
func TestConvergecastFaultRetry(t *testing.T) {
	g := graph.Torus(4, 4, 1, rand.New(rand.NewSource(2)))
	msgs := make([]BroadcastMsg, g.N())
	for v := range msgs {
		msgs[v] = BroadcastMsg{Origin: v, Words: 1}
	}

	s := NewTopo(g, WithFaults(&faults.Plan{Seed: 4, Drop: 0.3}))
	var got int
	s.Convergecast(0, msgs, func(m *BroadcastMsg) { got++ })
	if got != g.N() {
		t.Fatalf("sink learned %d messages, want %d", got, g.N())
	}
	if ctr := s.FaultCounters(); ctr.Dropped == 0 || ctr.Lost != 0 {
		t.Fatalf("drop=0.3 convergecast: %+v", ctr)
	}

	// Crashed sink learns nothing.
	s = NewTopo(g, WithFaults(&faults.Plan{Crashes: []faults.Crash{{Vertex: 0}}}))
	got = 0
	s.Convergecast(0, msgs, func(m *BroadcastMsg) { got++ })
	if got != 0 {
		t.Fatalf("crashed sink learned %d messages", got)
	}
	if ctr := s.FaultCounters(); ctr.Discarded != int64(g.N()) {
		t.Fatalf("Discarded = %d, want %d", ctr.Discarded, g.N())
	}
}
