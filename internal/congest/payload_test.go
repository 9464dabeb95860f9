package congest

import (
	"math"
	"math/rand"
	"testing"

	"lowmemroute/internal/graph"
)

func TestWordHelpersRoundTrip(t *testing.T) {
	for _, v := range []int{0, 1, -1, -2, 1 << 40, -(1 << 40), math.MaxInt64 >> 1} {
		if got := WordInt(IntWord(v)); got != v {
			t.Fatalf("IntWord roundtrip: %d -> %d", v, got)
		}
	}
	for _, f := range []float64{0, 1.5, -3.25, math.Inf(1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		if got := WordFloat(FloatWord(f)); got != f {
			t.Fatalf("FloatWord roundtrip: %v -> %v", f, got)
		}
	}
	if !WordBool(BoolWord(true)) || WordBool(BoolWord(false)) {
		t.Fatal("BoolWord roundtrip")
	}
}

// TestExtPayloadRelayChain sends a growing body down a path, each hop
// appending its own id before relaying. The body is copied on both sides:
// the received one is copied out with Body, and Send copies the Scratch
// buffer (reused every hop), so both are safe to reuse at once.
func TestExtPayloadRelayChain(t *testing.T) {
	const n = 5
	const kindTrail PayloadKind = 9
	g := graph.Path(n, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := NewTopo(g)
	var final []uint64
	s.Run([]int{0}, 20, func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			buf := ctx.Scratch(1)
			buf[0] = IntWord(0)
			ctx.Send(1, Payload{Kind: kindTrail, W0: 1}, 2, buf...)
			return
		}
		in := ctx.In()
		for i := range in {
			m := &in[i]
			if m.Payload.Kind != kindTrail {
				continue
			}
			k := int(m.Payload.W0)
			buf := append(ctx.Body(m, ctx.Scratch(0)), IntWord(v))
			if v == n-1 {
				final = append([]uint64(nil), buf...)
				continue
			}
			ctx.Send(v+1, Payload{Kind: kindTrail, W0: uint64(k + 1)}, k+2, buf...)
			// The engine copied buf on Send: clobbering the scratch now must
			// not corrupt the in-flight message.
			for i := range buf {
				buf[i] = ^uint64(0)
			}
		}
	})
	want := []uint64{IntWord(0), IntWord(1), IntWord(2), IntWord(3), IntWord(4)}
	if len(final) != len(want) {
		t.Fatalf("final trail %v, want %v", final, want)
	}
	for i := range want {
		if final[i] != want[i] {
			t.Fatalf("trail[%d]=%d want %d (full: %v)", i, final[i], want[i], final)
		}
	}
}

// TestRelayReceivedPayloadVerbatim relays m.Payload itself with its body
// copied out (the forward-to-children pattern): the same received message
// fans out to two children, each of which gets the whole body.
func TestRelayReceivedPayloadVerbatim(t *testing.T) {
	const kindList PayloadKind = 3
	g := graph.Star(4, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := NewTopo(g)
	got := make([][]uint64, 4)
	s.Run([]int{1}, 10, func(v int, ctx *Ctx) {
		in := ctx.In()
		switch {
		case v == 1 && ctx.Round() == 0:
			ctx.Send(0, Payload{Kind: kindList}, 4, 7, 8, 9)
		case v == 0:
			for i := range in {
				body := ctx.Body(&in[i], ctx.Scratch(0))
				ctx.Send(2, in[i].Payload, in[i].Words, body...)
				ctx.Send(3, in[i].Payload, in[i].Words, body...)
			}
		default:
			for i := range in {
				got[v] = ctx.Body(&in[i], nil)
			}
		}
	})
	for _, v := range []int{2, 3} {
		if len(got[v]) != 3 || got[v][0] != 7 || got[v][1] != 8 || got[v][2] != 9 {
			t.Fatalf("vertex %d received %v, want [7 8 9]", v, got[v])
		}
	}
}

// TestExtTrafficSteadyStateAllocFree pins the body contract: once the rings
// and the body buffers are warm, a Run that ships bodies down a path
// performs no allocation.
func TestExtTrafficSteadyStateAllocFree(t *testing.T) {
	g := graph.Path(8, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := NewTopo(g, WithWorkers(1))
	const kindBlob PayloadKind = 5
	initial := []int{0}
	step := func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			buf := ctx.Scratch(6)
			for i := range buf {
				buf[i] = uint64(i)
			}
			ctx.Send(1, Payload{Kind: kindBlob}, 7, buf...)
			return
		}
		in := ctx.In()
		for i := range in {
			if in[i].Payload.Kind == kindBlob && v < 7 {
				ctx.Send(v+1, in[i].Payload, in[i].Words, ctx.Body(&in[i], ctx.Scratch(0))...)
			}
		}
	}
	run := func() { s.Run(initial, 40, step) }
	for i := 0; i < 3; i++ {
		run() // warm queues, inboxes, scratch and body buffers
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("steady-state Run with bodies allocates %v/op, want 0", allocs)
	}
}

// TestDrainAllRecyclesExt covers the maxRounds cutoff path: a body stranded
// in a queue backlog is dropped with its head, and a later Run's message of
// the same size arrives intact.
func TestDrainAllRecyclesExt(t *testing.T) {
	const kindBlob PayloadKind = 6
	g := graph.Path(2, graph.UnitWeights, rand.New(rand.NewSource(1)))
	s := NewTopo(g, WithEdgeCapacity(1))
	// Phase 1: a 10-word message with a 9-word body over a capacity-1 edge,
	// cut off at 3 rounds - its slots are stranded in the queue and must be
	// drained.
	s.Run([]int{0}, 3, func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			buf := ctx.Scratch(9)
			for i := range buf {
				buf[i] = 0xAA
			}
			ctx.Send(1, Payload{Kind: kindBlob}, 10, buf...)
		}
	})
	if q := &s.queues[s.edgeID(0, 1)]; !q.empty() {
		t.Fatalf("the cut-off Run left %d live slots", q.n)
	}
	// Phase 2: same-size message must arrive intact, alone.
	var got [][]uint64
	s.Run([]int{0}, 100, func(v int, ctx *Ctx) {
		if v == 0 && ctx.Round() == 0 {
			buf := ctx.Scratch(9)
			for i := range buf {
				buf[i] = uint64(100 + i)
			}
			ctx.Send(1, Payload{Kind: kindBlob}, 10, buf...)
		}
		if v == 1 {
			in := ctx.In()
			for i := range in {
				got = append(got, ctx.Body(&in[i], nil))
			}
		}
	})
	if len(got) != 1 || len(got[0]) != 9 {
		t.Fatalf("phase 2 delivered %v, want one 9-word body", got)
	}
	for i, w := range got[0] {
		if w != uint64(100+i) {
			t.Fatalf("phase 2 body word %d = %d, want %d", i, w, 100+i)
		}
	}
}

// sendBody sends p with body to `to`: the bodied-message golden's one send
// site.
func sendBody(ctx *Ctx, to int, p Payload, words int, body []uint64) {
	ctx.Send(to, p, words, body...)
}

// bodyOf appends m's body to dst: the bodied-message golden's one read site.
func bodyOf(ctx *Ctx, dst []uint64, m *Message) []uint64 {
	return ctx.Body(m, dst)
}
