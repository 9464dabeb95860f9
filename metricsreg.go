package lowmemroute

import (
	"io"
	"time"

	"lowmemroute/internal/metrics"
	"lowmemroute/internal/obs"
)

// Metrics is a live metrics registry: attach one via Config.Metrics /
// TreeConfig.Metrics and the simulated construction exports throughput
// counters, its active-vertex count and (Build) its construction phase
// while it runs; Scheme.Route and PacketNetwork deliveries record
// per-lookup wall latency into histograms. Like the
// Tracer it is strictly observational — a build produces bit-identical
// schemes and reports with or without one — and a nil *Metrics is valid
// everywhere, disabling recording at no cost.
//
// Expose the registry over HTTP (Prometheus text format) by passing it to
// the CLIs' -pprof server, or scrape it in-process with WritePrometheus.
// One registry may serve several builds; counters accumulate across them.
type Metrics struct {
	reg *obs.Registry
}

// NewMetrics returns an empty registry ready to be passed to Build,
// BuildTree, or BuildTrees.
func NewMetrics() *Metrics { return &Metrics{reg: obs.NewRegistry()} }

// WritePrometheus renders the registry in Prometheus text exposition
// format v0.0.4.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	return m.reg.WritePrometheus(w)
}

// LatencySummary condenses a latency histogram: observation count and
// exact-rank percentiles (upper bucket edges, ≤3.2% quantization error,
// exact at the max).
type LatencySummary struct {
	Count int64
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	P999  time.Duration
	Max   time.Duration
}

// LookupLatency summarises the per-lookup wall latencies recorded so far
// (Scheme.Route calls and packet-network deliveries). Zero until the first
// instrumented lookup.
func (m *Metrics) LookupLatency() LatencySummary {
	if m == nil {
		return LatencySummary{}
	}
	s := metrics.LookupHist(m.reg).Snapshot()
	return LatencySummary{
		Count: s.Count,
		P50:   time.Duration(s.Quantile(0.5)),
		P90:   time.Duration(s.Quantile(0.9)),
		P99:   time.Duration(s.Quantile(0.99)),
		P999:  time.Duration(s.Quantile(0.999)),
		Max:   time.Duration(s.Max),
	}
}

// Registry returns the underlying obs registry (nil for a nil Metrics).
// It exists so the module's CLIs can hand the registry to the -pprof debug
// server and the progress reporter; the return type lives in an internal
// package, so code outside this module cannot name it.
func (m *Metrics) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}
