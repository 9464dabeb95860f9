// Package trace is the simulator's observability layer: a zero-dependency,
// low-overhead recorder of construction telemetry. It captures two kinds of
// data:
//
//   - Spans: named, nested intervals (one per construction phase) that
//     snapshot the simulator's monotone counters - rounds, messages, words,
//     peak memory - at their boundaries, so every span carries the exact
//     simulation cost of its phase. The span tree is the structured form of
//     Report.PhaseRounds.
//
//   - Round samples: a per-round time series emitted by the CONGEST engine
//     (active vertices, delivered messages and words, edge-queue backlog,
//     max/mean memory-meter level), including one aggregate sample per
//     analytically-charged primitive (broadcast, convergecast) and one per
//     fast-forwarded stretch of idle rounds.
//
// Both travel on one stream, the Sink: the engine pushes round samples into
// it and the builders push span boundaries (Begin). A Recorder keeps the
// stream for export; RegistrySink folds it into a live metrics registry
// (obs.Registry) for Prometheus and the CLI progress line; Tee feeds one
// stream to both.
//
// Everything is nil-safe: methods on a nil *Recorder and a nil *Span are
// no-ops that allocate nothing, and Begin on a nil Sink returns a no-op
// span, so instrumented code calls them unconditionally and a disabled
// tracer costs one nil check per call site.
// Exporters (export.go) render a recording as schema-versioned JSON, as
// Chrome trace_event JSON loadable in chrome://tracing or Perfetto (the
// simulated round is the clock: 1 round = 1 microsecond), or - via
// metrics.FormatTraceTable - as an ASCII summary table.
package trace

import (
	"runtime/metrics"
	"sync"
	"time"
)

// Counters is a snapshot of the simulator's monotone cost counters.
type Counters struct {
	Rounds     int64 `json:"rounds"`
	Messages   int64 `json:"messages"`
	Words      int64 `json:"words"`
	PeakMemory int64 `json:"peakMemory"`
}

// CounterSource supplies counter snapshots at span boundaries.
// congest.Simulator implements it.
type CounterSource interface {
	Rounds() int64
	Messages() int64
	Words() int64
	PeakMemory() int64
}

// RoundSample is one point of the per-round time series.
type RoundSample struct {
	// Round is the global round index (simulator total) at the end of the
	// sampled interval.
	Round int64 `json:"round"`
	// Rounds is the number of rounds the sample covers: 1 for a simulated
	// round, M+2D for a broadcast, etc.
	Rounds int64 `json:"rounds"`
	// Kind is one of KindRound, KindIdle, KindBroadcast, KindConvergecast,
	// KindAnalytic.
	Kind string `json:"kind"`
	// Active is the number of vertices that executed this round; vertices
	// sleeping on a WakeAt timer are not counted (for
	// broadcast/convergecast: the number of participating vertices).
	Active int `json:"active"`
	// Messages and Words are the traffic delivered during the interval.
	Messages int64 `json:"messages"`
	Words    int64 `json:"words"`
	// Backlog is the number of words still queued on bandwidth-limited
	// edges after the round's deliveries - the congestion the paper's
	// random start-time scheduling is designed to avoid.
	Backlog int64 `json:"backlog"`
	// MemMax is the maximum instantaneous per-vertex meter level (including
	// transient spikes) observed since the previous sample; MemMean is the
	// mean persistent level across all vertices.
	MemMax  int64   `json:"memMax"`
	MemMean float64 `json:"memMean"`
	// Fault-injection deltas for the sampled interval (all zero —
	// and absent from the JSON — when no fault plan is installed).
	Dropped    int64 `json:"dropped,omitempty"`
	Retried    int64 `json:"retried,omitempty"`
	Lost       int64 `json:"lost,omitempty"`
	Duplicated int64 `json:"duplicated,omitempty"`
	Discarded  int64 `json:"discarded,omitempty"`
}

// RoundSample kinds. An idle sample stands for a stretch of
// Rounds consecutive rounds that the engine fast-forwarded: no vertex
// stepped and nothing was delivered, so it carries no traffic and Active 0.
const (
	KindRound        = "round"
	KindIdle         = "idle"
	KindBroadcast    = "broadcast"
	KindConvergecast = "convergecast"
	KindAnalytic     = "analytic"
)

// memCounters is the host allocation state snapshotted at span boundaries
// (read from runtime/metrics, which does not stop the world): host-side
// allocation cost of a phase, the live counterpart of the simulator's own
// memory meters. Like wall time it is nondeterministic and stripped by
// Export.StripWall.
type memCounters struct {
	heapAlloc  int64
	totalAlloc int64
	numGC      int64
}

// Span is one named interval of a recording. Spans nest: a span begun while
// another is open becomes its child. The zero of cost is the counter
// snapshot at Begin; End snapshots again and the deltas are the span's cost,
// read through Recorder.Export.
type Span struct {
	rec       *Recorder
	name      string
	start     Counters
	end       Counters
	memStart  memCounters
	memEnd    memCounters
	wallStart time.Time
	wallDur   time.Duration
	children  []*Span
	done      bool
}

// Recorder collects spans and round samples. The zero value is not useful;
// use NewRecorder. All methods are safe on a nil receiver (no-ops) and safe
// for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	src     CounterSource
	meta    map[string]string
	roots   []*Span
	stack   []*Span
	samples []RoundSample
}

// NewRecorder returns an empty recorder. Attach a counter source before
// beginning spans if span cost deltas are wanted.
func NewRecorder() *Recorder {
	return &Recorder{meta: make(map[string]string)}
}

// Attach sets the counter source snapshotted at span boundaries (typically
// the congest.Simulator the construction runs on).
func (r *Recorder) Attach(src CounterSource) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.src = src
	r.mu.Unlock()
}

// SetMeta records a key/value annotation carried into every export (e.g.
// n, k, family, seed).
func (r *Recorder) SetMeta(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.meta[key] = value
	r.mu.Unlock()
}

func (r *Recorder) countersLocked() Counters {
	if r.src == nil {
		return Counters{}
	}
	return Counters{
		Rounds:     r.src.Rounds(),
		Messages:   r.src.Messages(),
		Words:      r.src.Words(),
		PeakMemory: r.src.PeakMemory(),
	}
}

// Begin opens a span named name, nested under the innermost open span.
// Returns nil (a no-op span) on a nil recorder.
func (r *Recorder) Begin(name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// The clock starts before the memory probe, so the span's wall time
	// covers its own opening probe, as End's closing probe is covered too.
	wallStart := time.Now()
	sp := &Span{
		rec:       r,
		name:      name,
		start:     r.countersLocked(),
		memStart:  readMemCounters(),
		wallStart: wallStart,
	}
	if len(r.stack) > 0 {
		parent := r.stack[len(r.stack)-1]
		parent.children = append(parent.children, sp)
	} else {
		r.roots = append(r.roots, sp)
	}
	r.stack = append(r.stack, sp)
	return sp
}

// End closes the span, snapshotting the counters. Ending a span implicitly
// ends any still-open descendants. Safe on a nil span, and idempotent.
func (sp *Span) End() {
	if sp == nil || sp.rec == nil {
		return
	}
	r := sp.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endLocked(sp)
}

// endLocked closes sp and any still-open descendants; a no-op if sp is
// already closed.
func (r *Recorder) endLocked(sp *Span) {
	if sp.done {
		return
	}
	end := r.countersLocked()
	mem := readMemCounters()
	now := time.Now()
	// Pop the stack down to (and including) sp, closing abandoned children.
	for i := len(r.stack) - 1; i >= 0; i-- {
		s := r.stack[i]
		r.stack = r.stack[:i]
		if !s.done {
			s.done = true
			s.end = end
			s.memEnd = mem
			s.wallDur = now.Sub(s.wallStart)
		}
		if s == sp {
			break
		}
	}
}

// Span is the Recorder's side of the Sink stream: a begin event opens a
// span nested under the innermost open one, an end event closes the
// innermost open span (and nothing if none is open).
func (r *Recorder) Span(ev SpanEvent) {
	if r == nil {
		return
	}
	if !ev.End {
		r.Begin(ev.Name)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.stack) > 0 {
		r.endLocked(r.stack[len(r.stack)-1])
	}
}

// The runtime/metrics names behind memCounters: bytes allocated so far,
// bytes in live (and not yet swept) heap objects, completed GC cycles.
var memMetricNames = [3]string{
	"/gc/heap/allocs:bytes",
	"/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles",
}

// readMemCounters snapshots the runtime allocation counters carried at
// span boundaries, once per Begin/End.
func readMemCounters() memCounters {
	var s [len(memMetricNames)]metrics.Sample
	for i, name := range memMetricNames {
		s[i].Name = name
	}
	metrics.Read(s[:])
	return memCounters{
		totalAlloc: int64(s[0].Value.Uint64()),
		heapAlloc:  int64(s[1].Value.Uint64()),
		numGC:      int64(s[2].Value.Uint64()),
	}
}

// RoundSample appends one sample to the time series; Recorder implements
// Sink.
func (r *Recorder) RoundSample(s RoundSample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}
