package congest

import (
	"math/rand"
	"testing"

	"lowmemroute/internal/graph"
	"lowmemroute/internal/obs"
)

// floodOnce builds a small torus simulator with the given options and runs a
// short flood, returning the simulator for its committed totals.
func floodOnce(t *testing.T, opts ...Option) *Simulator {
	t.Helper()
	const side, floodRounds = 6, 4
	g := graph.Torus(side, side, graph.UnitWeights, rand.New(rand.NewSource(7)))
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

// TestWithMetricsDeltaSync pins the registry-sharing contract: the exported
// counters are delta-synced, so two simulators feeding one registry add up
// to the sum of their committed totals, and the counters stay monotone.
func TestWithMetricsDeltaSync(t *testing.T) {
	reg := obs.NewRegistry()
	a := floodOnce(t, WithMetrics(reg))
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

	b := floodOnce(t, WithMetrics(reg))
	if got, want := reg.Counter("congest_rounds_total").Value(), a.Rounds()+b.Rounds(); got != want {
		t.Fatalf("shared registry rounds = %d, want %d (sum of both simulators)", got, want)
	}
	if got, want := reg.Counter("congest_words_total").Value(), a.Words()+b.Words(); got != want {
		t.Fatalf("shared registry words = %d, want %d", got, want)
	}

	// The high-water gauge keeps the max across simulators sharing the
	// registry (SetMax), and both runs are identical here.
	if got := reg.Gauge("congest_meter_peak_words").Value(); got != a.PeakMemory() || got != b.PeakMemory() {
		t.Fatalf("meter high-water gauge = %d, want peak memory %d/%d", got, a.PeakMemory(), b.PeakMemory())
	}
}

// TestWithMetricsObservational checks that attaching a registry changes
// nothing the simulation can observe: committed totals match a bare run.
func TestWithMetricsObservational(t *testing.T) {
	bare := floodOnce(t)
	metered := floodOnce(t, WithMetrics(obs.NewRegistry()))
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
	// WithMetrics(nil) must be a usable no-op.
	if s := floodOnce(t, WithMetrics(nil)); s.Rounds() != bare.Rounds() {
		t.Fatal("WithMetrics(nil) perturbed the run")
	}
}
