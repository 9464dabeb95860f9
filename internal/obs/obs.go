// Package obs is the live half of the observability layer: a stdlib-only
// metrics registry of atomic counters, gauges, and log2-bucketed histograms,
// designed so that recording on the hot path allocates nothing and a
// disabled registry costs one nil check per call site.
//
// Where internal/trace answers "what did this run cost?" after the fact,
// obs answers "what is it doing right now?": trace.RegistrySink folds the
// engine's instrumentation stream into rounds/messages/words throughput
// counters, an active-vertex gauge and the construction's phase progress,
// and the routing layer records per-lookup wall latency — all scrapable
// while the run is in flight, as Prometheus text format via
// trace.ServePprof's /metrics endpoint, or printed periodically by the CLI
// progress reporter.
//
// Like the tracer, the registry is strictly observational: instrumented
// code must behave identically with and without one installed. Every
// method is safe on a nil receiver (a no-op), so call sites never need a
// guard, and nothing in this package feeds back into simulation state.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; all methods are safe on a nil receiver and for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (d < 0 is ignored — counters are
// monotone by contract).
func (c *Counter) Add(d int64) {
	if c == nil || d <= 0 {
		return
	}
	c.v.Add(d)
}

// Value returns the current total (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level. The zero value is ready to use; all
// methods are safe on a nil receiver and for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current level (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Phase describes where a multi-phase computation currently is: Done phases
// finished out of Total, now running Name. Published by trace.RegistrySink
// from the construction's phase spans, read by the progress reporter and
// the /metrics endpoint.
type Phase struct {
	Name  string
	Done  int
	Total int
}

// Registry is a named collection of metrics. Lookups (Counter, Gauge,
// Histogram) lazily create the metric on first use and are intended for
// wiring time — instrumented code fetches its metrics once and then
// records through the returned pointers, which is the lock-free path.
// The zero value is ready to use but NewRegistry is clearer. All methods
// are safe on a nil receiver and for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string
	phase    Phase
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the counter registered under name, creating it if
// needed. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it if
// needed. Returns nil on a nil registry. scale converts recorded integer
// values into the metric's exposition unit (e.g. 1e-9 for a histogram of
// nanoseconds exposed in seconds); it is fixed at creation and later calls
// with a different scale keep the original.
func (r *Registry) Histogram(name string, scale float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(scale)
		r.hists[name] = h
	}
	return h
}

// SetHelp attaches a Prometheus HELP string to the metric named name.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.help == nil {
		r.help = make(map[string]string)
	}
	r.help[name] = help
}

// SetPhase publishes the current construction phase.
func (r *Registry) SetPhase(p Phase) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.phase = p
	r.mu.Unlock()
}

// Phase returns the most recently published phase.
func (r *Registry) Phase() Phase {
	if r == nil {
		return Phase{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.phase
}

// sortedNames returns the keys of m in lexical order.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
