package congest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lowmemroute/internal/graph"
)

func pathGraph(n int) *graph.CSR {
	return graph.Path(n, graph.UnitWeights, rand.New(rand.NewSource(1)))
}

// neighbors returns v's neighbor ids in t, in adjacency order.
func neighbors(t graph.Topology, v int) []int32 {
	to, _ := t.NeighborRange(v)
	return to
}

func TestRunFloodOnPath(t *testing.T) {
	// Flood a token from vertex 0 down a path: vertex i must receive it in
	// round i, and the run must take exactly n-1 rounds plus the final
	// quiescent check.
	n := 10
	g := pathGraph(n)
	s := NewTopo(g)
	got := make([]int, n)
	for i := range got {
		got[i] = -1
	}
	got[0] = 0
	rounds := s.Run([]int{0}, 100, func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			ctx.Send(1, Payload{}, 1)
			return
		}
		for range ctx.In() {
			if got[v] == -1 {
				got[v] = ctx.Round()
				if v+1 < n {
					ctx.Send(v+1, Payload{}, 1)
				}
			}
		}
	})
	for v := 1; v < n; v++ {
		if got[v] != v {
			t.Fatalf("vertex %d received at round %d, want %d", v, got[v], v)
		}
	}
	if rounds != n {
		t.Fatalf("rounds=%d want %d", rounds, n)
	}
	if s.Messages() != int64(n-1) {
		t.Fatalf("messages=%d want %d", s.Messages(), n-1)
	}
}

func TestSendToNonNeighborPanics(t *testing.T) {
	g := pathGraph(4)
	s := NewTopo(g)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-neighbor send")
		}
	}()
	s.Run([]int{0}, 1, func(v int, ctx *Ctx) {
		ctx.Send(3, Payload{}, 1) // 0 and 3 are not adjacent on the path
	})
}

// TestSendWordsBound: a queued entry stores its word count as an int32, so
// Send rejects a message of 2^31 words or more the way it rejects a
// non-neighbour, and a message of exactly MaxInt32 words arrives intact.
func TestSendWordsBound(t *testing.T) {
	for _, words := range []int{math.MaxInt32 + 1, math.MaxInt} {
		t.Run(fmt.Sprint(words), func(t *testing.T) {
			s := NewTopo(pathGraph(2))
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic on a %d-word send", words)
				}
			}()
			s.Run([]int{0}, 1, func(v int, ctx *Ctx) { ctx.Send(1, Payload{}, words) })
		})
	}
	s := NewTopo(pathGraph(2), WithEdgeCapacity(0))
	got := 0
	s.Run([]int{0}, 4, func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			ctx.Send(1, Payload{}, math.MaxInt32)
		}
		for _, m := range ctx.In() {
			got = m.Words
		}
	})
	if got != math.MaxInt32 || s.Words() != math.MaxInt32 {
		t.Fatalf("delivered %d words (counter %d), want %d", got, s.Words(), math.MaxInt32)
	}
}

func TestWakeKeepsVertexActive(t *testing.T) {
	g := pathGraph(3)
	s := NewTopo(g)
	count := 0
	s.Run([]int{0}, 5, func(v int, ctx *Ctx) {
		if v == 0 {
			count++
			if count < 3 {
				ctx.Wake()
			}
		}
	})
	if count != 3 {
		t.Fatalf("vertex 0 ran %d times, want 3", count)
	}
}

func TestRunStopsAtMaxRounds(t *testing.T) {
	g := pathGraph(2)
	s := NewTopo(g)
	rounds := s.Run([]int{0}, 7, func(v int, ctx *Ctx) {
		ctx.Wake() // never quiesce
	})
	if rounds != 7 {
		t.Fatalf("rounds=%d want 7", rounds)
	}
	if s.Rounds() != 7 {
		t.Fatalf("Rounds()=%d want 7", s.Rounds())
	}
}

func TestInboxDeterministicOrder(t *testing.T) {
	// Star: all leaves send to the center in round 0; the center must see
	// messages sorted by sender id, regardless of worker scheduling. The
	// star has more leaves than parallelMin, so round 0's sends run on the
	// worker pool. Its one destination never forks the delivery phase.
	n := 2 * parallelMin
	g := graph.Star(n, graph.UnitWeights, rand.New(rand.NewSource(1)))
	for trial := 0; trial < 3; trial++ {
		s := NewTopo(g, WithWorkers(8))
		leaves := make([]int, 0, n-1)
		for v := 1; v < n; v++ {
			leaves = append(leaves, v)
		}
		var order []int
		s.Run(leaves, 2, func(v int, ctx *Ctx) {
			if ctx.Round() == 0 && v != 0 {
				ctx.Send(0, Payload{}, 1)
				return
			}
			if v == 0 {
				for _, m := range ctx.In() {
					order = append(order, m.From)
				}
			}
		})
		if len(order) != n-1 {
			t.Fatalf("center saw %d messages, want %d", len(order), n-1)
		}
		if steps, _ := s.ParallelRounds(); steps == 0 {
			t.Fatal("the leaves' sends never ran on the worker pool")
		}
		for i := 1; i < len(order); i++ {
			if order[i-1] >= order[i] {
				t.Fatalf("inbox not sorted at %d: %v ...", i, order[:i+1])
			}
		}
	}
}

func TestMessageAndWordAccounting(t *testing.T) {
	g := pathGraph(3)
	s := NewTopo(g)
	s.Run([]int{0, 1}, 5, func(v int, ctx *Ctx) {
		if ctx.Round() != 0 {
			return
		}
		if v == 0 {
			ctx.Send(1, Payload{}, 3)
		}
		if v == 1 {
			ctx.Send(2, Payload{}, 2)
			ctx.Send(0, Payload{}, 1)
		}
	})
	if s.Messages() != 3 {
		t.Fatalf("messages=%d want 3", s.Messages())
	}
	if s.Words() != 6 {
		t.Fatalf("words=%d want 6", s.Words())
	}
}

func TestBandwidthDelaysLargeMessages(t *testing.T) {
	// A 5-word message over a capacity-2 edge needs 3 rounds of
	// transmission: sent in round 0, delivered at the start of round 2.
	g := pathGraph(2)
	s := NewTopo(g, WithEdgeCapacity(2))
	deliveredAt := -1
	s.Run([]int{0}, 10, func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			ctx.Send(1, Payload{}, 5)
		}
		if v == 1 && len(ctx.In()) > 0 {
			deliveredAt = ctx.Round()
		}
	})
	if deliveredAt != 3 {
		t.Fatalf("5-word message delivered at round %d, want 3", deliveredAt)
	}
}

func TestBandwidthQueuePacesDeliveryWithoutMemoryCharge(t *testing.T) {
	// Vertex 0 fires 10 one-word messages at its only edge in round 0.
	// Capacity 1 delivers one per round: the backlog stretches the round
	// count but charges no memory (a CONGEST processor regenerates
	// outgoing messages from its stored, separately-charged state).
	g := pathGraph(2)
	s := NewTopo(g, WithEdgeCapacity(1))
	got := 0
	s.Run([]int{0}, 50, func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			for i := 0; i < 10; i++ {
				ctx.Send(1, Payload{W0: IntWord(i)}, 1)
			}
		}
		if v == 1 {
			got += len(ctx.In())
		}
	})
	if got != 10 {
		t.Fatalf("delivered %d messages, want 10", got)
	}
	if peak := s.Mem(0).Peak(); peak != 0 {
		t.Fatalf("sender peak=%d want 0 (backlog is pacing, not storage)", peak)
	}
	if s.Rounds() < 10 {
		t.Fatalf("rounds=%d, want >= 10 under capacity 1", s.Rounds())
	}
}

func TestUnlimitedCapacityDeliversInstantly(t *testing.T) {
	g := pathGraph(2)
	s := NewTopo(g, WithEdgeCapacity(0))
	got := 0
	s.Run([]int{0}, 3, func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			for i := 0; i < 10; i++ {
				ctx.Send(1, Payload{W0: IntWord(i)}, 7)
			}
		}
		if v == 1 {
			got += len(ctx.In())
		}
	})
	if got != 10 {
		t.Fatalf("delivered %d want 10", got)
	}
	if s.Mem(0).Peak() != 0 {
		t.Fatalf("no backlog should be charged, got %d", s.Mem(0).Peak())
	}
}

func TestFanOutSendIsMemoryFree(t *testing.T) {
	// Sending one 1-word message per incident edge in a single round is a
	// built-in ability of a CONGEST processor and must not charge memory.
	n := 100
	g := graph.Star(n, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := NewTopo(g)
	s.Run([]int{0}, 3, func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			for u := 1; u < n; u++ {
				ctx.Send(u, Payload{}, 1)
			}
		}
	})
	if s.Mem(0).Peak() != 0 {
		t.Fatalf("fan-out charged %d words, want 0", s.Mem(0).Peak())
	}
	if s.Messages() != int64(n-1) {
		t.Fatalf("messages=%d", s.Messages())
	}
}

func TestMeter(t *testing.T) {
	var m Meter
	if m.Peak() != 0 || m.Current() != 0 {
		t.Fatal("zero meter should be empty")
	}
	m.Charge(5)
	m.Charge(3)
	if m.Current() != 8 || m.Peak() != 8 {
		t.Fatalf("current=%d peak=%d", m.Current(), m.Peak())
	}
	m.Release(6)
	if m.Current() != 2 || m.Peak() != 8 {
		t.Fatalf("after release: current=%d peak=%d", m.Current(), m.Peak())
	}
	m.Spike(10)
	if m.Current() != 2 || m.Peak() != 12 {
		t.Fatalf("after spike: current=%d peak=%d", m.Current(), m.Peak())
	}
	m.Release(100)
	if m.Current() != 0 {
		t.Fatalf("release clamps at 0, got %d", m.Current())
	}
	m.Charge(-5)
	m.Spike(-1)
	if m.Current() != 0 || m.Peak() != 12 {
		t.Fatal("negative charges must be ignored")
	}
	m.Reset()
	if m.Current() != 0 || m.Peak() != 0 {
		t.Fatal("reset failed")
	}
}

// Property: peak is always >= current and monotone nondecreasing.
func TestMeterProperty(t *testing.T) {
	f := func(ops []int16) bool {
		var m Meter
		var lastPeak int64
		for _, op := range ops {
			switch {
			case op%3 == 0:
				m.Charge(int64(op))
			case op%3 == 1:
				m.Release(int64(op))
			default:
				m.Spike(int64(op))
			}
			if m.Peak() < m.Current() || m.Peak() < lastPeak || m.Current() < 0 {
				return false
			}
			lastPeak = m.Peak()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastDeliversToAll(t *testing.T) {
	n := 20
	g := pathGraph(n)
	s := NewTopo(g)
	msgs := []BroadcastMsg{
		{Origin: 3, Words: 2},
		{Origin: 7, Words: 1},
	}
	seen := make([]int, n)
	s.Broadcast(msgs, func(v int, d *Delivery) {
		for j := 0; j < d.Len(); j++ {
			if d.At(j) != nil {
				seen[v]++
			}
		}
	})
	for v, c := range seen {
		if c != 2 {
			t.Fatalf("vertex %d saw %d messages, want 2", v, c)
		}
	}
	// Lemma 1 cost: M + 2D rounds; D for a path graph is ~2*(n-1) here
	// (radius upper bound). Just check rounds were charged and are >= M.
	if s.Rounds() < 2 {
		t.Fatalf("rounds=%d", s.Rounds())
	}
	if s.Messages() != int64(2*(n-1)) {
		t.Fatalf("messages=%d want %d", s.Messages(), 2*(n-1))
	}
}

func TestBroadcastEmptyIsFree(t *testing.T) {
	s := NewTopo(pathGraph(5))
	s.Broadcast(nil, nil)
	if s.Rounds() != 0 || s.Messages() != 0 {
		t.Fatal("empty broadcast should cost nothing")
	}
}

func TestBroadcastRoundCost(t *testing.T) {
	g := pathGraph(5)
	s := NewTopo(g, WithDiameter(4))
	msgs := make([]BroadcastMsg, 10)
	for i := range msgs {
		msgs[i] = BroadcastMsg{Origin: 0, Words: 1}
	}
	s.Broadcast(msgs, nil)
	if got, want := s.Rounds(), int64(10+2*4); got != want {
		t.Fatalf("rounds=%d want %d", got, want)
	}
}

func TestConvergecast(t *testing.T) {
	g := pathGraph(6)
	s := NewTopo(g, WithDiameter(5))
	msgs := []BroadcastMsg{
		{Origin: 4, Payload: Payload{W0: IntWord(40)}, Words: 1},
		{Origin: 1, Payload: Payload{W0: IntWord(10)}, Words: 1},
		{Origin: 3, Payload: Payload{W0: IntWord(30)}, Words: 1},
	}
	var got []int
	s.Convergecast(0, msgs, func(m *BroadcastMsg) {
		got = append(got, WordInt(m.Payload.W0))
	})
	want := []int{10, 30, 40}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v (origin order)", got, want)
		}
	}
	if s.Rounds() != int64(3+2*5) {
		t.Fatalf("rounds=%d", s.Rounds())
	}
}

func TestBroadcastSpikesMemory(t *testing.T) {
	s := NewTopo(pathGraph(4))
	s.Broadcast([]BroadcastMsg{{Origin: 0, Words: 7}}, func(v int, d *Delivery) {})
	for v := 0; v < 4; v++ {
		if s.Mem(v).Peak() != 7 {
			t.Fatalf("vertex %d peak=%d want 7 (streaming spike)", v, s.Mem(v).Peak())
		}
	}
}

func TestWorkersProduceSameResultAsSerial(t *testing.T) {
	// Bellman-Ford-ish flood on a random graph with 1 worker vs 8 workers
	// must produce identical distance vectors and identical round counts.
	// The graph is large enough for the flood's middle rounds to cross
	// parallelMin.
	g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, 1500, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) ([]float64, int64) {
		s := NewTopo(g, WithWorkers(workers))
		dist := make([]float64, g.N())
		for i := range dist {
			dist[i] = graph.Infinity
		}
		dist[0] = 0
		s.Run([]int{0}, g.N(), func(v int, ctx *Ctx) {
			if ctx.Round() == 0 && v == 0 {
				to, base := s.Topo().NeighborRange(v)
				for i, u := range to {
					ctx.Send(int(u), Payload{W0: FloatWord(dist[v] + s.Topo().ArcWeight(base+i))}, 1)
				}
				return
			}
			best := dist[v]
			for _, m := range ctx.In() {
				if d := WordFloat(m.Payload.W0); d < best {
					best = d
				}
			}
			if best < dist[v] {
				dist[v] = best
				to, base := s.Topo().NeighborRange(v)
				for i, u := range to {
					ctx.Send(int(u), Payload{W0: FloatWord(dist[v] + s.Topo().ArcWeight(base+i))}, 1)
				}
			}
		})
		requireForked(t, s, workers)
		return dist, s.Rounds()
	}
	d1, r1 := run(1)
	d8, r8 := run(8)
	if r1 != r8 {
		t.Fatalf("rounds differ: %d vs %d", r1, r8)
	}
	exact := graph.Dijkstra(g, 0)
	for v := range d1 {
		if d1[v] != d8[v] {
			t.Fatalf("vertex %d: serial %v parallel %v", v, d1[v], d8[v])
		}
		if d1[v] != exact.Dist[v] {
			t.Fatalf("vertex %d: flood %v dijkstra %v", v, d1[v], exact.Dist[v])
		}
	}
}

func TestAddRounds(t *testing.T) {
	s := NewTopo(pathGraph(2))
	s.AddRounds(5)
	s.AddRounds(-3)
	if s.Rounds() != 5 {
		t.Fatalf("Rounds=%d want 5", s.Rounds())
	}
}

func TestAvgPeakMemory(t *testing.T) {
	s := NewTopo(pathGraph(4))
	s.Mem(0).Charge(4)
	s.Mem(1).Charge(8)
	if got := s.AvgPeakMemory(); got != 3 {
		t.Fatalf("AvgPeakMemory=%v want 3", got)
	}
	if got := s.PeakMemory(); got != 8 {
		t.Fatalf("PeakMemory=%v want 8", got)
	}
}

// TestSendBodyBound: Send rejects a body of 2^16 words or more, whose
// length would not fit its head slot, and a body of exactly MaxUint16 words
// arrives intact.
func TestSendBodyBound(t *testing.T) {
	func() {
		s := NewTopo(pathGraph(2))
		defer func() {
			if recover() == nil {
				t.Fatal("no panic on a 65536-word body")
			}
		}()
		s.Run([]int{0}, 1, func(v int, ctx *Ctx) { ctx.Send(1, Payload{}, 1, make([]uint64, math.MaxUint16+1)...) })
	}()
	body := make([]uint64, math.MaxUint16)
	for i := range body {
		body[i] = uint64(i)
	}
	s := NewTopo(pathGraph(2))
	var got []uint64
	s.Run([]int{0}, 4, func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			ctx.Send(1, Payload{}, 1, body...)
		}
		in := ctx.In()
		for i := range in {
			got = ctx.Body(&in[i], nil)
		}
	})
	if !reflect.DeepEqual(got, body) {
		t.Fatalf("a %d-word body arrived as %d words", len(body), len(got))
	}
	if s.Words() != 1 || s.Rounds() != 2 {
		t.Fatalf("a 1-word message with a body counted %d words over %d rounds, want 1 word over 2 rounds", s.Words(), s.Rounds())
	}
}
