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
//     analytically-charged primitive (broadcast, convergecast).
//
// Everything is nil-safe: methods on a nil *Recorder and a nil *Span are
// no-ops that allocate nothing, so instrumented code calls them
// unconditionally and a disabled tracer costs one nil check per call site.
// Exporters (export.go) render a recording as schema-versioned JSON, as
// Chrome trace_event JSON loadable in chrome://tracing or Perfetto (the
// simulated round is the clock: 1 round = 1 microsecond), or - via
// metrics.FormatTraceTable - as an ASCII summary table.
package trace

import (
	"runtime"
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
	// Kind is one of KindRound, KindBroadcast, KindConvergecast,
	// KindAnalytic.
	Kind string `json:"kind"`
	// Active is the number of vertices that executed this round; vertices
	// sleeping on a WakeAt timer are not counted (schema v4; for
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
	// Fault-injection deltas for the sampled interval (schema v2; all zero —
	// and absent from the JSON — when no fault plan is installed).
	Dropped    int64 `json:"dropped,omitempty"`
	Retried    int64 `json:"retried,omitempty"`
	Lost       int64 `json:"lost,omitempty"`
	Duplicated int64 `json:"duplicated,omitempty"`
	Discarded  int64 `json:"discarded,omitempty"`
}

// RoundSample kinds.
const (
	KindRound        = "round"
	KindBroadcast    = "broadcast"
	KindConvergecast = "convergecast"
	KindAnalytic     = "analytic"
)

// Sink receives per-round samples from the simulator. A nil Sink disables
// sampling; the engine's hot path pays exactly one nil check per round.
type Sink interface {
	RoundSample(s RoundSample)
}

// memCounters is the slice of runtime.MemStats snapshotted at span
// boundaries: host-side allocation cost of a phase, the live counterpart
// of the simulator's own memory meters. Like wall time it is
// nondeterministic and stripped by Export.StripWall.
type memCounters struct {
	heapAlloc  int64
	totalAlloc int64
	numGC      int64
}

// Span is one named interval of a recording. Spans nest: a span begun while
// another is open becomes its child. The zero of cost is the counter
// snapshot at Begin; End snapshots again and the deltas are the span's cost.
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
	// The clock starts before the memory probe (runtime.ReadMemStats stops
	// the world), so the span's wall time covers its own opening probe, as
	// End's closing probe is covered too.
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

// readMemCounters snapshots the runtime allocation counters carried at
// span boundaries. One ReadMemStats per Begin/End — spans are per
// construction phase, so this stop-the-world probe is off the per-round
// hot path.
func readMemCounters() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{
		heapAlloc:  int64(ms.HeapAlloc),
		totalAlloc: int64(ms.TotalAlloc),
		numGC:      int64(ms.NumGC),
	}
}

// Name returns the span's name.
func (sp *Span) Name() string {
	if sp == nil {
		return ""
	}
	return sp.name
}

// StartRound returns the simulator round at which the span began.
func (sp *Span) StartRound() int64 {
	if sp == nil {
		return 0
	}
	return sp.start.Rounds
}

// Rounds returns the simulation rounds consumed within the span.
func (sp *Span) Rounds() int64 {
	if sp == nil {
		return 0
	}
	return sp.end.Rounds - sp.start.Rounds
}

// Messages returns the messages delivered within the span.
func (sp *Span) Messages() int64 {
	if sp == nil {
		return 0
	}
	return sp.end.Messages - sp.start.Messages
}

// Words returns the words delivered within the span.
func (sp *Span) Words() int64 {
	if sp == nil {
		return 0
	}
	return sp.end.Words - sp.start.Words
}

// PeakMemoryDelta returns the growth of the global peak-memory high-water
// mark within the span (0 if the span did not move the peak).
func (sp *Span) PeakMemoryDelta() int64 {
	if sp == nil {
		return 0
	}
	return sp.end.PeakMemory - sp.start.PeakMemory
}

// Wall returns the wall-clock duration of the span.
func (sp *Span) Wall() time.Duration {
	if sp == nil {
		return 0
	}
	return sp.wallDur
}

// Children returns the span's direct children in begin order.
func (sp *Span) Children() []*Span {
	if sp == nil {
		return nil
	}
	return sp.children
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

// Roots returns the top-level spans in begin order.
func (r *Recorder) Roots() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Span(nil), r.roots...)
}

// Samples returns the recorded time series.
func (r *Recorder) Samples() []RoundSample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]RoundSample(nil), r.samples...)
}
