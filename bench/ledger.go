package main

import (
	"fmt"
	"strings"

	"lowmemroute/internal/trace"
)

// minSpanCoverage is the share of a traced op's wall time its top-level
// spans must account for; below it the ledger would hide where time went.
const minSpanCoverage = 90

// ledger folds traced ops (trace exports, lowmemroute.trace/v3) into the
// per-layer metrics: per-op means of span costs and engine counters, and
// medians of host timings.
type ledger struct {
	ops                        int
	sums                       map[string]float64
	layer                      map[string]bool // per-layer metric names
	traced, overhead, coverage []float64
	nsPerRound, nsPerDelivered []float64
}

func newLedger() *ledger {
	l := &ledger{sums: map[string]float64{}, layer: map[string]bool{}}
	for _, m := range perLayer {
		l.layer[m.Name] = true
	}
	return l
}

func (l *ledger) sum(name string, v float64) { l.sums[name] += v }

// add folds one traced op: its export, its wall time and the wall time of
// its untraced twin (seconds).
func (l *ledger) add(ex trace.Export, traced, plain float64) error {
	l.ops++
	var covered int64
	for _, sp := range ex.Spans {
		covered += sp.WallNanos
		l.span(sp, "", traced)
	}
	cov := float64(covered) / (traced * 1e9) * 100
	l.coverage = append(l.coverage, cov)
	l.traced = append(l.traced, traced)
	l.overhead = append(l.overhead, (traced/plain-1)*100)

	var executed, delivered, charged, active int64
	for _, s := range ex.Samples {
		if s.Kind == trace.KindRound {
			executed += s.Rounds
			delivered += s.Messages
			active += int64(s.Active)
		} else {
			charged += s.Messages
		}
	}
	c := ex.Counters
	l.sum("congest.rounds", float64(c.Rounds))
	l.sum("congest.messages", float64(c.Messages))
	l.sum("congest.words", float64(c.Words))
	l.sum("congest.peak_mem_words", float64(c.PeakMemory))
	l.sum("congest.executed_rounds", float64(executed))
	l.sum("congest.delivered_messages", float64(delivered))
	l.sum("congest.charged_messages", float64(charged))
	l.sum("congest.active_vertex_rounds", float64(active))
	if c.Rounds > 0 && delivered > 0 {
		l.nsPerRound = append(l.nsPerRound, plain*1e9/float64(c.Rounds))
		l.nsPerDelivered = append(l.nsPerDelivered, plain*1e9/float64(delivered))
	}
	if cov < minSpanCoverage {
		return fmt.Errorf("spans cover %.1f%% of the traced op's wall time, want >= %d%%", cov, minSpanCoverage)
	}
	return nil
}

// span adds one span's cost under its ledger name: core phases at the top,
// hopset levels under "hopset", treeroute sub-phases under "tree-routing".
// Spans with no ledger name (hopset's pivots/clusters, the benchmark's own
// boot/explore spans) only count toward coverage.
func (l *ledger) span(sp trace.SpanExport, parent string, opWall float64) {
	var name string
	switch parent {
	case "":
		name = "core." + sp.Name
	case "hopset":
		name = "hopset." + strings.TrimPrefix(sp.Name, "hopset-")
	case "tree-routing":
		name = "treeroute." + sp.Name
	}
	if l.layer[name+".share_pct"] {
		l.sum(name+".share_pct", float64(sp.WallNanos)/(opWall*1e9)*100)
		for suffix, v := range map[string]float64{
			".rounds":   float64(sp.Rounds),
			".messages": float64(sp.Messages),
			".alloc_mb": float64(sp.TotalAllocDelta) / 1e6,
		} {
			if l.layer[name+suffix] {
				l.sum(name+suffix, v)
			}
		}
	}
	for _, c := range sp.Children {
		l.span(c, sp.Name, opWall)
	}
}

// finish writes the ledger's metrics into m.
func (l *ledger) finish(m map[string]float64) {
	for name, v := range l.sums {
		m[name] = v / float64(l.ops)
	}
	m["trace.op_ms"] = median(l.traced) * 1e3
	m["trace.overhead_pct"] = median(l.overhead)
	m["trace.span_coverage_pct"] = median(l.coverage)
	if len(l.nsPerRound) > 0 {
		m["congest.ns_per_round"] = median(l.nsPerRound)
		m["congest.ns_per_delivered_message"] = median(l.nsPerDelivered)
	}
	if active := l.sums["congest.active_vertex_rounds"]; active > 0 {
		m["congest.msgs_per_active_vertex_round"] = l.sums["congest.delivered_messages"] / active
	}
}
