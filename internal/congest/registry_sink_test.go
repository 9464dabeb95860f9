package congest

import (
	"math/rand"
	"testing"

	"lowmemroute/internal/graph"
	"lowmemroute/internal/obs"
	"lowmemroute/internal/trace"
)

// floodOnce builds a small torus simulator with the given options and runs a
// short flood, returning the simulator for its committed totals.
func floodOnce(t *testing.T, opts ...Option) *Simulator {
	t.Helper()
	const side, floodRounds = 6, 4
	g := graph.Torus(side, side, 1, rand.New(rand.NewSource(7)))
	s := NewTopo(g, opts...)
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	s.Run(all, floodRounds+1, func(v int, ctx *Ctx) {
		if ctx.Round() < floodRounds {
			for _, nb := range neighbors(s.Topo(), v) {
				ctx.Send(int(nb), Payload{W0: IntWord(v)}, 1)
			}
			ctx.Wake()
		}
	})
	return s
}

// TestRegistrySinkDeltaSync pins the registry-sharing contract: the
// registry sink adds each sample's rounds, messages and words as deltas, so
// two simulators feeding one registry add up to the sum of their committed
// totals, and the counters stay monotone.
func TestRegistrySinkDeltaSync(t *testing.T) {
	reg := obs.NewRegistry()
	a := floodOnce(t, WithTrace(trace.RegistrySink(reg)))
	rounds := reg.Counter("congest_rounds_total").Value()
	msgs := reg.Counter("congest_messages_total").Value()
	words := reg.Counter("congest_words_total").Value()
	if rounds != a.Rounds() || msgs != a.Messages() || words != a.Words() {
		t.Fatalf("registry (%d,%d,%d) != simulator totals (%d,%d,%d)",
			rounds, msgs, words, a.Rounds(), a.Messages(), a.Words())
	}
	if rounds == 0 || msgs == 0 || words == 0 {
		t.Fatal("flood exported no traffic")
	}

	b := floodOnce(t, WithTrace(trace.RegistrySink(reg)))
	if got, want := reg.Counter("congest_rounds_total").Value(), a.Rounds()+b.Rounds(); got != want {
		t.Fatalf("shared registry rounds = %d, want %d (sum of both simulators)", got, want)
	}
	if got, want := reg.Counter("congest_words_total").Value(), a.Words()+b.Words(); got != want {
		t.Fatalf("shared registry words = %d, want %d", got, want)
	}
	// Every vertex steps in the flood's last round.
	if got := reg.Gauge("congest_active_vertices").Value(); got != int64(b.N()) {
		t.Fatalf("active-vertices gauge = %d after the flood, want %d", got, b.N())
	}
}

// TestRegistrySinkObservational checks that a registry sink, alone or
// teed with a recorder, changes nothing the simulation can observe:
// committed totals and meters match a bare run. A registry sink records no
// levels, so the engine skips the meter scan for it.
func TestRegistrySinkObservational(t *testing.T) {
	bare := floodOnce(t)
	reg := obs.NewRegistry()
	for _, sink := range []trace.Sink{
		trace.RegistrySink(reg),
		trace.Tee(trace.NewRecorder(), trace.RegistrySink(reg)),
	} {
		metered := floodOnce(t, WithTrace(sink))
		if bare.Rounds() != metered.Rounds() ||
			bare.Messages() != metered.Messages() ||
			bare.Words() != metered.Words() {
			t.Fatalf("metered run diverged: bare (%d,%d,%d) vs metered (%d,%d,%d)",
				bare.Rounds(), bare.Messages(), bare.Words(),
				metered.Rounds(), metered.Messages(), metered.Words())
		}
		if bare.PeakMemory() != metered.PeakMemory() {
			t.Fatalf("peak memory diverged: %d vs %d", bare.PeakMemory(), metered.PeakMemory())
		}
		if metered.levels != trace.RecordsLevels(sink) {
			t.Fatalf("levels = %v for %T", metered.levels, sink)
		}
	}
	if floodOnce(t, WithTrace(trace.RegistrySink(reg))).levels {
		t.Fatal("a registry sink alone pays for sample levels")
	}
	// RegistrySink(nil) must be a usable no-op.
	if s := floodOnce(t, WithTrace(trace.RegistrySink(nil))); s.tracer != nil || s.Rounds() != bare.Rounds() {
		t.Fatal("RegistrySink(nil) installed a sink or perturbed the run")
	}
}
