package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// SchemaVersion identifies the JSON export layout. Consumers (CI bench
// tracking) must reject files whose schema field is unknown; the version
// bumps on any incompatible change. Documented in DESIGN.md §7. Version 2
// added the per-sample fault counters (dropped/retried/lost/duplicated/
// discarded, omitted when zero); version 3 added per-span runtime.MemStats
// deltas (heapAllocDelta/totalAllocDelta/numGCDelta, omitted when zero).
// Version 4 keeps the v3 layout but narrows the meaning of a round sample's
// active field: it counts the vertices that stepped that round, and no
// longer vertices sleeping on a WakeAt timer. Every earlier file decodes
// unchanged, so v1-v3 remain readable — see ReadJSON.
const SchemaVersion = "lowmemroute.trace/v4"

// SchemaVersionV3 is the layout before WakeAt timers, still accepted by
// ReadJSON: its active counts include vertices that spun through a wait.
const SchemaVersionV3 = "lowmemroute.trace/v3"

// SchemaVersionV2 is the pre-MemStats export layout, still accepted by
// ReadJSON: every v2 field decodes identically under v3.
const SchemaVersionV2 = "lowmemroute.trace/v2"

// SchemaVersionV1 is the pre-fault-counter export layout, still accepted by
// ReadJSON: every v1 field decodes identically under v2 and v3.
const SchemaVersionV1 = "lowmemroute.trace/v1"

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
	// Host-side runtime.MemStats deltas over the span (schema v3).
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
// schema-v3 MemStats deltas — recursively. Those are the nondeterministic
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

// ReadJSON parses a JSON export, rejecting unknown schema versions. The
// current schema, v3, v2, and v1 (each bump only added omitempty fields or
// narrowed a count) are all accepted. A file from a *future* schema version
// (a v5 export landing on a v4 reader) gets its own explicit error: schema
// bumps mark incompatible changes, so decoding such a file as v4 could
// silently misparse it, and "unsupported schema" alone would hide that the
// fix is to upgrade the reader, not the file.
func ReadJSON(r io.Reader) (Export, error) {
	var out Export
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return Export{}, fmt.Errorf("trace: decode export: %w", err)
	}
	switch out.Schema {
	case SchemaVersion, SchemaVersionV3, SchemaVersionV2, SchemaVersionV1:
	default:
		if n, ok := schemaNumber(out.Schema, traceSchemaFamily); ok && n > traceSchemaMax {
			return Export{}, fmt.Errorf("trace: export schema %q was written by a newer version (this reader understands up to v%d); upgrade the reader",
				out.Schema, traceSchemaMax)
		}
		return Export{}, fmt.Errorf("trace: unsupported schema %q (want %q, %q, %q, or %q)",
			out.Schema, SchemaVersion, SchemaVersionV3, SchemaVersionV2, SchemaVersionV1)
	}
	return out, nil
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
