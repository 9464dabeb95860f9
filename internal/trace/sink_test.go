package trace

import (
	"testing"

	"lowmemroute/internal/obs"
)

// TestSpanEventsBuildTheSpanTree: span boundaries pushed through the Sink
// stream nest in a Recorder exactly like Begin/End handles.
func TestSpanEventsBuildTheSpanTree(t *testing.T) {
	src := &fakeSource{}
	r := NewRecorder()
	r.Attach(src)
	var s Sink = r
	build := Begin(s, "build")
	phase := BeginPhase(s, "hopset", 2, 6)
	src.c.Rounds = 7
	inner := Begin(s, "pivots")
	src.c.Rounds = 9
	inner.End()
	phase.End()
	build.End()
	Begin(s, "after").End()

	roots := r.Export().Spans
	if len(roots) != 2 || roots[0].Name != "build" || roots[1].Name != "after" {
		t.Fatalf("roots %+v", roots)
	}
	kids := roots[0].Children
	if len(kids) != 1 || kids[0].Name != "hopset" || kids[0].Rounds != 9 {
		t.Fatalf("phase span %+v", kids)
	}
	if g := kids[0].Children; len(g) != 1 || g[0].Name != "pivots" || g[0].Rounds != 2 || g[0].StartRound != 7 {
		t.Fatalf("sub-phase span %+v", g)
	}
	// An end event with nothing open is ignored.
	r.Span(SpanEvent{End: true})
}

// TestNilSinkSpansAllocationFree: Begin on a nil sink, or on a nil
// *Recorder held in a Sink, is a no-op that allocates nothing.
func TestNilSinkSpansAllocationFree(t *testing.T) {
	var rec *Recorder
	for _, s := range []Sink{nil, rec} {
		if allocs := testing.AllocsPerRun(100, func() {
			BeginPhase(s, "phase", 1, 6).End()
			Begin(s, "sub").End()
		}); allocs != 0 {
			t.Fatalf("%T: %v allocs per span", s, allocs)
		}
	}
}

func TestTeeAndRecordsLevels(t *testing.T) {
	var nilRec *Recorder
	if Tee() != nil || Tee(nil, nilRec, RegistrySink(nil)) != nil {
		t.Fatal("Tee of nil sinks is not nil")
	}
	rec := NewRecorder()
	if Tee(nilRec, rec) != Sink(rec) {
		t.Fatal("Tee of one sink is not that sink")
	}
	reg := RegistrySink(obs.NewRegistry())
	for _, c := range []struct {
		s    Sink
		want bool
	}{
		{nil, false},
		{reg, false},
		{Tee(reg, RegistrySink(obs.NewRegistry())), false},
		{rec, true},
		{Tee(rec, reg), true},
		{Tee(reg, rec), true},
	} {
		if got := RecordsLevels(c.s); got != c.want {
			t.Errorf("RecordsLevels(%T) = %v, want %v", c.s, got, c.want)
		}
	}
}

// TestRegistrySinkPublishes: samples add as deltas, round and idle samples
// set the active gauge, and phase spans (and only they) publish progress.
func TestRegistrySinkPublishes(t *testing.T) {
	reg := obs.NewRegistry()
	rec := NewRecorder()
	s := Tee(rec, RegistrySink(reg))
	s.RoundSample(RoundSample{Round: 1, Rounds: 1, Kind: KindRound, Active: 4, Messages: 9, Words: 18})
	s.RoundSample(RoundSample{Round: 8, Rounds: 7, Kind: KindBroadcast, Active: 64, Messages: 63, Words: 63})
	if got := reg.Gauge("congest_active_vertices").Value(); got != 4 {
		t.Fatalf("active = %d after a broadcast, want the last round's 4", got)
	}
	s.RoundSample(RoundSample{Round: 12, Rounds: 4, Kind: KindIdle})
	if r, m, w := reg.Counter("congest_rounds_total").Value(), reg.Counter("congest_messages_total").Value(),
		reg.Counter("congest_words_total").Value(); r != 12 || m != 72 || w != 81 {
		t.Fatalf("counters (%d,%d,%d), want (12,72,81)", r, m, w)
	}
	if got := reg.Gauge("congest_active_vertices").Value(); got != 0 {
		t.Fatalf("active = %d after an idle stretch, want 0", got)
	}

	root := Begin(s, "build")
	if p := reg.Phase(); p.Total != 0 {
		t.Fatalf("a plain span published phase %+v", p)
	}
	ph := BeginPhase(s, "hopset", 2, 6)
	if p := reg.Phase(); p != (obs.Phase{Name: "hopset", Done: 2, Total: 6}) {
		t.Fatalf("phase at begin %+v", p)
	}
	Begin(s, "pivots").End()
	ph.End()
	if p := reg.Phase(); p != (obs.Phase{Name: "hopset", Done: 3, Total: 6}) {
		t.Fatalf("phase at end %+v", p)
	}
	root.End()
	ex := rec.Export()
	if n := len(ex.Samples); n != 3 {
		t.Fatalf("teed recorder kept %d samples, want 3", n)
	}
	if len(ex.Spans) != 1 || len(ex.Spans[0].Children) != 1 {
		t.Fatalf("teed recorder span tree %+v", ex.Spans)
	}
}
