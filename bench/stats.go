package main

import (
	"math"
	"math/bits"
	"sort"

	"lowmemroute/internal/obs"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: fewer and the percentile is one or two outliers, which do not
// repeat from run to run on a shared host.
const tailBeyond = 10

// tailPercentile returns the highest of p50, p75, p90, p95 and p99 that has
// at least tailBeyond of n samples beyond it. p50 is the floor: with fewer
// than 20 samples the median is the only percentile reported.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= tailBeyond {
			return p
		}
	}
	return 50
}

// percentile returns the p-th percentile of xs, interpolating linearly
// between the two nearest order statistics. xs must be non-empty; it is not
// modified.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the three cut points that Python's
// statistics.quantiles(xs, n=4) returns with its default "exclusive"
// method, so that spreads printed here match the ones computed from the
// JSON results. xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the distance between the first and third quartile as a share of
// the median: the run-to-run noise a bound has to exceed.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// histQuantile returns the q-quantile of a latency histogram, interpolated
// linearly inside the bucket that holds it. obs.Quantile answers with the
// bucket's upper edge, which would make every run report one of a few
// discrete values; interpolation keeps the measured digits. The bucket's
// lower edge follows from obs's documented layout: values below 32 have a
// bucket each, and each octave above is split into 32 equal buckets.
func histQuantile(s obs.HistSnapshot, q float64) float64 {
	rank := q * float64(s.Count)
	var prev int64
	out := math.NaN()
	s.Buckets(func(upper, cum int64) {
		if !math.IsNaN(out) || float64(cum) < rank {
			prev = cum
			return
		}
		width := int64(1)
		if upper >= 32 {
			width = 1 << (bits.Len64(uint64(upper)) - 1 - 5)
		}
		low := upper - width + 1
		frac := (rank - float64(prev)) / float64(cum-prev)
		out = float64(low) + frac*float64(width)
	})
	return out
}
