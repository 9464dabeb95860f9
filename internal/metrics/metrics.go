// Package metrics implements the evaluation harness: stretch measurement,
// size/memory summaries, text table rendering, and the experiment drivers
// that regenerate the paper's Table 1 (general-graph routing schemes) and
// Table 2 (tree-routing schemes), plus the supplementary sweeps indexed in
// DESIGN.md (E3-E7).
package metrics

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"lowmemroute/internal/graph"
	"lowmemroute/internal/obs"
)

// StretchStats summarises routing stretch over a set of sampled pairs.
type StretchStats struct {
	Max, Avg float64
	Pairs    int
	Failures int
}

// MeasureStretch routes k sampled pairs and compares against exact
// distances in t computed by Dijkstra on demand. route has the RouteAppend
// shape (dataplane.Table.RouteAppend for every cluster-forest scheme): it
// appends the walked path to the buffer it is handed and returns it with
// the walk's weighted length. The wall time of each route call lands in lat
// (recorded in nanoseconds; register the histogram with scale 1e-9 to
// expose it as route_lookup_seconds). A nil histogram skips the clock
// reads entirely.
func MeasureStretch(t graph.Topology, route func(src, dst int, path []int) ([]int, float64, error), pairs int, r *rand.Rand, lat *obs.Histogram) StretchStats {
	var st StretchStats
	n := t.N()
	if n < 2 {
		return st
	}
	exactCache := make(map[int][]float64)
	exact := func(u int) []float64 {
		if d, ok := exactCache[u]; ok {
			return d
		}
		d := graph.Dijkstra(t, u).Dist
		exactCache[u] = d
		return d
	}
	var buf []int
	var sum float64
	for i := 0; i < pairs; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		var began time.Time
		if lat != nil {
			began = time.Now()
		}
		var w float64
		var err error
		buf, w, err = route(u, v, buf[:0])
		if lat != nil {
			lat.Record(int64(time.Since(began)))
		}
		if err != nil {
			st.Failures++
			continue
		}
		d := exact(u)[v]
		if d <= 0 || d == graph.Infinity {
			continue
		}
		s := w / d
		if s > st.Max {
			st.Max = s
		}
		sum += s
		st.Pairs++
	}
	if st.Pairs > 0 {
		st.Avg = sum / float64(st.Pairs)
	}
	return st
}

// StretchHistogram routes sampled pairs of t with route (the RouteAppend
// shape, as in MeasureStretch) and buckets stretch values; bucket i covers
// [1 + i*width, 1 + (i+1)*width). Pairs route fails on are counted and
// skipped (like MeasureStretch) rather than aborting the whole measurement;
// the failure count is returned alongside the histogram.
func StretchHistogram(t graph.Topology, route func(src, dst int, path []int) ([]int, float64, error), pairs, buckets int, width float64, r *rand.Rand) ([]int, int) {
	hist := make([]int, buckets)
	failures := 0
	n := t.N()
	var buf []int
	for i := 0; i < pairs; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		var w float64
		var err error
		buf, w, err = route(u, v, buf[:0])
		if err != nil {
			failures++
			continue
		}
		d := graph.Dijkstra(t, u).Dist[v]
		if d <= 0 || d == graph.Infinity {
			continue
		}
		b := int((w/d - 1) / width)
		if b < 0 {
			b = 0
		}
		if b >= buckets {
			b = buckets - 1
		}
		hist[b]++
	}
	return hist, failures
}

// FormatTable renders rows as an aligned text table with a header rule.
func FormatTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	rule := make([]string, len(headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// FormatInt renders n with thousands separators (readability of round and
// message counts).
func FormatInt(n int64) string {
	s := fmt.Sprintf("%d", n)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}
