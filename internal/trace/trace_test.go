package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// fakeSource is a hand-cranked counter source.
type fakeSource struct{ c Counters }

func (f *fakeSource) Rounds() int64     { return f.c.Rounds }
func (f *fakeSource) Messages() int64   { return f.c.Messages }
func (f *fakeSource) Words() int64      { return f.c.Words }
func (f *fakeSource) PeakMemory() int64 { return f.c.PeakMemory }

func TestSpanNestingAndDeltas(t *testing.T) {
	src := &fakeSource{}
	r := NewRecorder()
	r.Attach(src)

	root := r.Begin("build")
	src.c = Counters{Rounds: 10, Messages: 100, Words: 200, PeakMemory: 7}
	child := r.Begin("phase-a")
	src.c = Counters{Rounds: 25, Messages: 180, Words: 360, PeakMemory: 9}
	child.End()
	grand := r.Begin("phase-b")
	inner := r.Begin("phase-b-inner")
	src.c = Counters{Rounds: 40, Messages: 300, Words: 500, PeakMemory: 9}
	inner.End()
	grand.End()
	root.End()

	roots := r.Roots()
	if len(roots) != 1 || roots[0].Name() != "build" {
		t.Fatalf("roots=%v", roots)
	}
	kids := roots[0].Children()
	if len(kids) != 2 || kids[0].Name() != "phase-a" || kids[1].Name() != "phase-b" {
		t.Fatalf("children wrong: %d", len(kids))
	}
	if got := kids[0].Rounds(); got != 15 {
		t.Fatalf("phase-a rounds=%d want 15", got)
	}
	if got := kids[0].StartRound(); got != 10 {
		t.Fatalf("phase-a start=%d want 10", got)
	}
	if got := kids[0].Messages(); got != 80 {
		t.Fatalf("phase-a messages=%d want 80", got)
	}
	if got := kids[0].PeakMemoryDelta(); got != 2 {
		t.Fatalf("phase-a peak delta=%d want 2", got)
	}
	if n := len(kids[1].Children()); n != 1 {
		t.Fatalf("phase-b children=%d want 1", n)
	}
	if got := roots[0].Rounds(); got != 40 {
		t.Fatalf("root rounds=%d want 40", got)
	}
}

func TestEndClosesAbandonedChildren(t *testing.T) {
	src := &fakeSource{}
	r := NewRecorder()
	r.Attach(src)
	root := r.Begin("outer")
	r.Begin("leaked") // never ended explicitly
	src.c.Rounds = 5
	root.End() // must close "leaked" too
	// A new span after the close must be a fresh root, not a child of
	// anything left on the stack.
	next := r.Begin("next")
	next.End()
	if n := len(r.Roots()); n != 2 {
		t.Fatalf("roots=%d want 2", n)
	}
	leaked := r.Roots()[0].Children()[0]
	if leaked.Rounds() != 5 {
		t.Fatalf("leaked span rounds=%d want 5", leaked.Rounds())
	}
	// End is idempotent.
	root.End()
	if n := len(r.Roots()); n != 2 {
		t.Fatalf("double End changed roots: %d", n)
	}
}

func TestNilRecorderIsNoOpAndAllocationFree(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		r.Attach(nil)
		r.SetMeta("k", "v")
		sp := r.Begin("phase")
		sp.End()
		if sp.Name() != "" || sp.Rounds() != 0 || sp.Messages() != 0 ||
			sp.Words() != 0 || sp.PeakMemoryDelta() != 0 || sp.Wall() != 0 {
			t.Fatal("nil span returned nonzero")
		}
		r.RoundSample(RoundSample{})
		if r.Roots() != nil || r.Samples() != nil {
			t.Fatal("nil recorder returned data")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-recorder path allocates %v times per run", allocs)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	src := &fakeSource{}
	r := NewRecorder()
	r.Attach(src)
	r.SetMeta("n", "64")
	sp := r.Begin("build")
	src.c = Counters{Rounds: 12, Messages: 34, Words: 56, PeakMemory: 8}
	sub := r.Begin("phase")
	src.c.Rounds = 20
	sub.End()
	sp.End()
	r.RoundSample(RoundSample{Round: 3, Rounds: 1, Kind: KindRound, Active: 4, Messages: 9, Words: 18, Backlog: 2, MemMax: 6, MemMean: 1.5})

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Export()
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		t.Fatalf("round trip mismatch:\n got %s\nwant %s", gj, wj)
	}
	if got.Meta["n"] != "64" {
		t.Fatalf("meta lost: %v", got.Meta)
	}
	if len(got.Spans) != 1 || len(got.Spans[0].Children) != 1 {
		t.Fatalf("span tree lost: %+v", got.Spans)
	}
	if got.Spans[0].Children[0].Rounds != 8 {
		t.Fatalf("child rounds=%d want 8", got.Spans[0].Children[0].Rounds)
	}
	if len(got.Samples) != 1 || got.Samples[0].MemMean != 1.5 {
		t.Fatalf("samples lost: %+v", got.Samples)
	}
}

// TestReadJSONAcceptsOlderSchemas: every earlier layout still decodes; a
// v1-v3 round sample's active count simply includes spinning waiters.
func TestReadJSONAcceptsOlderSchemas(t *testing.T) {
	for _, schema := range []string{SchemaVersionV1, SchemaVersionV2, SchemaVersionV3, SchemaVersion} {
		ex, err := ReadJSON(strings.NewReader(`{"schema":"` + schema + `","spans":[],"samples":[{"round":1,"rounds":1,"kind":"round","active":3}]}`))
		if err != nil || len(ex.Samples) != 1 || ex.Samples[0].Active != 3 {
			t.Fatalf("schema %q: %+v, %v", schema, ex, err)
		}
	}
}

func TestReadJSONRejectsWrongSchema(t *testing.T) {
	_, err := ReadJSON(strings.NewReader(`{"schema":"lowmemroute.trace/v0","spans":[]}`))
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("want schema error, got %v", err)
	}
}

func TestWriteChromeProducesLoadableJSON(t *testing.T) {
	src := &fakeSource{}
	r := NewRecorder()
	r.Attach(src)
	sp := r.Begin("build")
	src.c = Counters{Rounds: 5}
	zero := r.Begin("instant") // zero-duration spans must still render
	zero.End()
	sp.End()
	r.RoundSample(RoundSample{Round: 2, Rounds: 1, Kind: KindRound, Active: 3, Messages: 4, Words: 8})

	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if parsed.DisplayTimeUnit == "" {
		t.Fatal("missing displayTimeUnit")
	}
	byName := map[string]int{}
	for _, e := range parsed.TraceEvents {
		byName[e.Name]++
		switch e.Ph {
		case "X":
			if e.Dur < 1 {
				t.Fatalf("slice %q has dur %d < 1", e.Name, e.Dur)
			}
		case "C", "M":
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
		if e.Pid == 0 {
			t.Fatalf("event %q lacks pid", e.Name)
		}
	}
	for _, want := range []string{"process_name", "build", "instant", "traffic", "backlog", "active", "memory"} {
		if byName[want] == 0 {
			t.Fatalf("missing %q event; have %v", want, byName)
		}
	}
}
