package congest

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lowmemroute/internal/graph"
	"lowmemroute/internal/trace"
)

// ffWorkload is a pacing-heavy program with long idle stretches: leaves fire
// differently-sized messages at the star center over capacity-1 edges, go
// quiet, and the center answers each arrival with another slow message. Every
// observable - counters, per-vertex delivery logs, meter peaks - must be
// identical whether the idle rounds are simulated or fast-forwarded.
func ffWorkload(t *testing.T, opts ...Option) (rounds, messages, words int64, peaks []int64, logs [][]rcvd) {
	t.Helper()
	const n = 6
	g := graph.Star(n, graph.UnitWeights, rand.New(rand.NewSource(2)))
	s := NewTopo(g, append([]Option{WithEdgeCapacity(1)}, opts...)...)
	logs = make([][]rcvd, n)
	s.Run(leafIDs(n), 200, func(v int, ctx *Ctx) {
		for _, m := range ctx.In() {
			logs[v] = append(logs[v], rcvd{Round: ctx.Round(), From: m.From, Words: m.Words, Payload: m.Payload})
		}
		if v != 0 && ctx.Round() == 0 {
			// Leaf v's message takes 3v+1 rounds to cross; nothing else is
			// active meanwhile, so the engine sees pure idle backlog.
			ctx.Send(0, Payload{W0: IntWord(v)}, 3*v+1)
			return
		}
		if v == 0 {
			for _, m := range ctx.In() {
				ctx.Send(m.From, Payload{W0: IntWord(-m.From)}, 5)
			}
		}
	})
	peaks = make([]int64, n)
	for v := 0; v < n; v++ {
		peaks[v] = s.Mem(v).Peak()
	}
	return s.Rounds(), s.Messages(), s.Words(), peaks, logs
}

func TestIdleFastForwardEquivalence(t *testing.T) {
	r1, m1, w1, p1, l1 := ffWorkload(t, WithIdleFastForward(true))
	r2, m2, w2, p2, l2 := ffWorkload(t, WithIdleFastForward(false))
	if r1 != r2 || m1 != m2 || w1 != w2 {
		t.Fatalf("counters differ: ff-on rounds=%d msgs=%d words=%d, ff-off rounds=%d msgs=%d words=%d",
			r1, m1, w1, r2, m2, w2)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("meter peaks differ: ff-on %v, ff-off %v", p1, p2)
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Fatalf("delivery logs differ:\nff-on:  %v\nff-off: %v", l1, l2)
	}
	// The workload's longest single crossing is 16 rounds; if the equality
	// above had been established by fast-forward never engaging, the rounds
	// count would not include the idle stretches. Sanity-check it does.
	if r1 < 16 {
		t.Fatalf("rounds=%d, expected the full paced schedule", r1)
	}
}

// TestIdleFastForwardTraceEquivalence: a traced run fast-forwards like an
// untraced one. Its sample stream equals the stream of a run with the
// fast-forward off once the latter's empty round samples (no vertex stepped,
// nothing delivered) are removed, and its idle samples cover exactly those
// removed rounds.
func TestIdleFastForwardTraceEquivalence(t *testing.T) {
	stream := func(on bool) (kept []byte, idle, empty int64) {
		sink := &collectingSink{}
		_, _, _, _, _ = ffWorkload(t, WithIdleFastForward(on), WithTrace(sink))
		var buf bytes.Buffer
		for _, s := range sink.samples {
			switch {
			case s.Kind == trace.KindIdle:
				if s.Active != 0 || s.Messages != 0 || s.Words != 0 {
					t.Fatalf("idle sample with activity: %+v", s)
				}
				idle += s.Rounds
				continue
			case s.Kind == trace.KindRound && s.Active == 0 && s.Messages == 0 && s.Words == 0:
				empty++
				continue
			}
			fmt.Fprintf(&buf, "%d %s %d %d %d %d %d %d %g\n",
				s.Round, s.Kind, s.Rounds, s.Active, s.Messages, s.Words, s.Backlog, s.MemMax, s.MemMean)
		}
		return buf.Bytes(), idle, empty
	}
	on, idleOn, emptyOn := stream(true)
	off, idleOff, emptyOff := stream(false)
	if !bytes.Equal(on, off) {
		t.Fatalf("stepped-round samples differ under fast-forward:\non:\n%s\noff:\n%s", on, off)
	}
	if emptyOn != 0 || idleOff != 0 {
		t.Fatalf("fast-forward on left %d empty round samples; off emitted %d idle rounds", emptyOn, idleOff)
	}
	if idleOn == 0 || idleOn != emptyOff {
		t.Fatalf("idle samples cover %d rounds, want the %d empty rounds of the literal run", idleOn, emptyOff)
	}
}

// TestFastForwardRespectsMaxRounds: the jump may not carry Run past its
// round budget.
func TestFastForwardRespectsMaxRounds(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights, rand.New(rand.NewSource(1)))
	for _, maxRounds := range []int{2, 3, 5, 100} {
		s := NewTopo(g, WithEdgeCapacity(1))
		delivered := false
		executed := s.Run([]int{0}, maxRounds, func(v int, ctx *Ctx) {
			if v == 0 && ctx.Round() == 0 {
				ctx.Send(1, Payload{}, 10) // needs 10 transmission rounds
			}
			if v == 1 && len(ctx.In()) > 0 {
				delivered = true
			}
		})
		wantRounds := maxRounds
		wantDelivered := false
		if maxRounds > 10 {
			wantRounds = 11
			wantDelivered = true
		}
		if executed != wantRounds || delivered != wantDelivered {
			t.Fatalf("maxRounds=%d: executed=%d delivered=%v, want %d/%v",
				maxRounds, executed, delivered, wantRounds, wantDelivered)
		}
	}
}
