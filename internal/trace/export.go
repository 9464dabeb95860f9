package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// SchemaVersion identifies the JSON export layout. Consumers (CI bench
// tracking) must reject files whose schema field is unknown; the version
// bumps on any incompatible change. Documented in DESIGN.md §7. Version 5
// is the one layout this package writes and the only one ReadJSON
// accepts: a traced run fast-forwards idle rounds like an untraced one,
// one idle sample covers each skipped stretch, and round samples are
// emitted only for rounds the engine stepped, counting as active only the
// vertices that stepped.
const SchemaVersion = "lowmemroute.trace/v5"

// traceSchemaFamily and traceSchemaMax let ReadJSON tell a future export
// (same family, higher version) from an unknown schema.
const (
	traceSchemaFamily = "lowmemroute.trace"
	traceSchemaMax    = 5
)

// schemaNumber parses the version number of a "<family>/v<N>" schema string.
// ok is false when the string is not of that family or N is not a positive
// integer — such strings are "unknown", not "future".
func schemaNumber(schema, family string) (int, bool) {
	rest, found := strings.CutPrefix(schema, family+"/v")
	if !found {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// Export is the machine-readable form of a recording.
type Export struct {
	Schema   string            `json:"schema"`
	Meta     map[string]string `json:"meta,omitempty"`
	Counters Counters          `json:"counters"`
	Spans    []SpanExport      `json:"spans"`
	Samples  []RoundSample     `json:"samples,omitempty"`
}

// SpanExport is one span of the export tree; all quantities are deltas over
// the span except StartRound.
type SpanExport struct {
	Name          string `json:"name"`
	StartRound    int64  `json:"startRound"`
	Rounds        int64  `json:"rounds"`
	Messages      int64  `json:"messages"`
	Words         int64  `json:"words"`
	PeakMemBefore int64  `json:"peakMemBefore"`
	PeakMemAfter  int64  `json:"peakMemAfter"`
	WallNanos     int64  `json:"wallNanos"`
	// Host-side allocation deltas over the span: bytes in live
	// heap objects, bytes allocated, GC cycles, read from runtime/metrics.
	// HeapAllocDelta can be negative (a GC shrank the live heap inside the
	// span); TotalAllocDelta and NumGCDelta are monotone. Like WallNanos
	// these measure the host process, not the simulation, and are zeroed
	// by StripWall.
	HeapAllocDelta  int64        `json:"heapAllocDelta,omitempty"`
	TotalAllocDelta int64        `json:"totalAllocDelta,omitempty"`
	NumGCDelta      int64        `json:"numGCDelta,omitempty"`
	Children        []SpanExport `json:"children,omitempty"`
}

func exportSpan(sp *Span) SpanExport {
	out := SpanExport{
		Name:          sp.name,
		StartRound:    sp.start.Rounds,
		Rounds:        sp.end.Rounds - sp.start.Rounds,
		Messages:      sp.end.Messages - sp.start.Messages,
		Words:         sp.end.Words - sp.start.Words,
		PeakMemBefore: sp.start.PeakMemory,
		PeakMemAfter:  sp.end.PeakMemory,
		WallNanos:     sp.wallDur.Nanoseconds(),
	}
	if sp.done {
		out.HeapAllocDelta = sp.memEnd.heapAlloc - sp.memStart.heapAlloc
		out.TotalAllocDelta = sp.memEnd.totalAlloc - sp.memStart.totalAlloc
		out.NumGCDelta = sp.memEnd.numGC - sp.memStart.numGC
	}
	for _, c := range sp.children {
		out.Children = append(out.Children, exportSpan(c))
	}
	return out
}

// Export snapshots the recording. Open spans are exported with their
// begin-time counters (zero deltas).
func (r *Recorder) Export() Export {
	out := Export{Schema: SchemaVersion}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.meta) > 0 {
		out.Meta = make(map[string]string, len(r.meta))
		for k, v := range r.meta {
			out.Meta[k] = v
		}
	}
	out.Counters = r.countersLocked()
	for _, sp := range r.roots {
		out.Spans = append(out.Spans, exportSpan(sp))
	}
	out.Samples = append([]RoundSample(nil), r.samples...)
	return out
}

// StripWall zeroes every span's host-measured fields — WallNanos and the
// allocation deltas — recursively. Those are the nondeterministic
// fields of an export (they measure the host process, not the seeded
// simulation): with them removed, two runs of the same simulation must
// serialise to byte-identical JSON (the determinism contract enforced by
// lowmemlint's LM003 and the regression tests).
func (e *Export) StripWall() {
	var walk func(spans []SpanExport)
	walk = func(spans []SpanExport) {
		for i := range spans {
			spans[i].WallNanos = 0
			spans[i].HeapAllocDelta = 0
			spans[i].TotalAllocDelta = 0
			spans[i].NumGCDelta = 0
			walk(spans[i].Children)
		}
	}
	walk(e.Spans)
}

// WriteJSON writes the schema-versioned JSON export.
func (r *Recorder) WriteJSON(w io.Writer) error {
	return WriteExportJSON(w, r.Export())
}

// WriteExportJSON serialises an already-snapshotted (and possibly
// normalised, see StripWall) export in the same layout as WriteJSON.
func WriteExportJSON(w io.Writer, e Export) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// ReadJSON parses a JSON export, rejecting every schema but SchemaVersion.
// A file from a *future* schema version (a v6 export landing on a v5
// reader) gets its own explicit error: schema bumps mark incompatible
// changes, so decoding such a file as v5 could silently misparse it, and
// "unsupported schema" alone would hide that the fix is to upgrade the
// reader, not the file.
func ReadJSON(r io.Reader) (Export, error) {
	var out Export
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return Export{}, fmt.Errorf("trace: decode export: %w", err)
	}
	if out.Schema == SchemaVersion {
		return out, nil
	}
	if n, ok := schemaNumber(out.Schema, traceSchemaFamily); ok && n > traceSchemaMax {
		return Export{}, fmt.Errorf("trace: export schema %q was written by a newer version (this reader understands up to v%d); upgrade the reader",
			out.Schema, traceSchemaMax)
	}
	return Export{}, fmt.Errorf("trace: unsupported schema %q (want %q)", out.Schema, SchemaVersion)
}

// chromeEvent is one entry of the Chrome trace_event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func chromeSpans(sp SpanExport, events []chromeEvent) []chromeEvent {
	dur := sp.Rounds
	if dur < 1 {
		dur = 1 // zero-duration slices vanish in viewers
	}
	events = append(events, chromeEvent{
		Name: sp.Name,
		Ph:   "X",
		Ts:   sp.StartRound,
		Dur:  dur,
		Pid:  1,
		Tid:  1,
		Args: map[string]any{
			"rounds":       sp.Rounds,
			"messages":     sp.Messages,
			"words":        sp.Words,
			"peakMemAfter": sp.PeakMemAfter,
			"wallNanos":    sp.WallNanos,
		},
	})
	for _, c := range sp.Children {
		events = chromeSpans(c, events)
	}
	return events
}

// WriteChrome writes the recording in Chrome trace_event JSON, loadable in
// chrome://tracing and Perfetto. The simulated round number is the clock:
// one round renders as one microsecond. Spans become complete ("X") slices
// on a single track; the per-round time series becomes counter ("C") tracks
// for traffic, backlog, active vertices, and meter levels.
func (r *Recorder) WriteChrome(w io.Writer) error {
	ex := r.Export()
	var events []chromeEvent
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1, Tid: 1,
		Args: map[string]any{"name": "congest-sim"},
	})
	for _, sp := range ex.Spans {
		events = chromeSpans(sp, events)
	}
	for _, s := range ex.Samples {
		ts := s.Round
		events = append(events,
			chromeEvent{Name: "traffic", Ph: "C", Ts: ts, Pid: 1,
				Args: map[string]any{"messages": s.Messages, "words": s.Words}},
			chromeEvent{Name: "backlog", Ph: "C", Ts: ts, Pid: 1,
				Args: map[string]any{"words": s.Backlog}},
			chromeEvent{Name: "active", Ph: "C", Ts: ts, Pid: 1,
				Args: map[string]any{"vertices": s.Active}},
			chromeEvent{Name: "memory", Ph: "C", Ts: ts, Pid: 1,
				Args: map[string]any{"max": s.MemMax, "mean": s.MemMean}},
		)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
