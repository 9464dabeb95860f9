// Package traffic is a deterministic load generator for the compiled data
// plane: per-worker splitmix64 streams draw (source, destination) pairs with
// Zipf-distributed destination popularity and drive dataplane.LookupBatch as
// fast as the table answers (or at a configured rate), recording per-lookup
// latency into an internal/obs histogram.
//
// Determinism contract: the sequence of (src, dst) pairs each worker draws
// is a pure function of (Seed, worker index, Skew, table size), and with a
// Lookups budget set the budget is split across workers up front — the same
// config replays the same workload bit-for-bit (Report.Lookups, Arrived,
// NoRoute included), so throughput comparisons across builds measure the
// code, not the dice. Only the latency/elapsed numbers are host-measured
// (and a Duration- or Rate-bounded run is inherently host-paced).
package traffic

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/obs"
)

// Stream is a splitmix64 sequence generator (same finalizer as
// internal/faults.mix64): state advances by the golden-gamma constant and
// each output is the finalized state. Deterministic, allocation-free.
type Stream struct{ state uint64 }

// NewStream returns a stream seeded for one worker: workers of the same run
// derive disjoint-looking streams from (seed, worker).
func NewStream(seed uint64, worker int) *Stream {
	return &Stream{state: seed ^ (uint64(worker)+1)*0x9e3779b97f4a7c15}
}

// Next returns the next 64 pseudo-random bits.
func (s *Stream) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Zipf samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s
// via a precomputed cumulative table and binary search: O(log n) per draw,
// zero allocation, any skew s >= 0 (s = 0 is uniform). Rank r addresses
// vertex r, so low-numbered vertices are the hot destinations.
type Zipf struct {
	cum []float64 // cum[r] = P(rank <= r); cum[n-1] == 1
}

// NewZipf builds the cumulative table for n ranks at skew s. Panics if
// n <= 0 or s is negative or NaN; Run checks both and returns an error.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("traffic: Zipf needs n > 0")
	}
	if !(s >= 0) {
		panic("traffic: Zipf needs skew >= 0")
	}
	cum := make([]float64, n)
	total := 0.0
	for r := 0; r < n; r++ {
		total += math.Pow(float64(r+1), -s)
		cum[r] = total
	}
	inv := 1 / total
	for r := range cum {
		cum[r] *= inv
	}
	cum[n-1] = 1
	return &Zipf{cum: cum}
}

// Rank maps 64 uniform bits to a rank by binary search over the cumulative
// table.
func (z *Zipf) Rank(u uint64) int {
	// 53 mantissa bits -> uniform float64 in [0, 1).
	f := float64(u>>11) * 0x1p-53
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) >> 1
		if z.cum[mid] < f {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Config parameterizes one generator run. Zero values choose the defaults
// noted on each field; at least one of Lookups and Duration must be set.
type Config struct {
	// Workers is the number of generator goroutines, each with its own
	// stream, buffers, and table snapshot (no cross-worker state beyond the
	// shared lookup budget). Default: GOMAXPROCS.
	Workers int
	// Batch is the number of lookups per LookupBatch call. Default: 256.
	Batch int
	// Skew is the Zipf exponent of the destination distribution (0 =
	// uniform, 1 ≈ web-like). Default: 0.
	Skew float64
	// Seed seeds every worker's stream (with the worker index mixed in).
	Seed uint64
	// Lookups is the total lookup budget across workers; 0 means unbounded
	// (Duration limits the run instead).
	Lookups int64
	// Duration caps the wall-clock run time; 0 means uncapped (Lookups
	// limits the run instead).
	Duration time.Duration
	// Rate throttles the run to about this many lookups/sec across all
	// workers (each worker paces itself at Rate/Workers); 0 = unthrottled.
	Rate float64
}

// Report summarizes one generator run. Lookups, Arrived, and NoRoute are
// deterministic for a given (table, Config); Elapsed is host-measured.
type Report struct {
	Lookups int64         // forwarding decisions made
	Arrived int64         // decisions where src == dst (delivered on the spot)
	NoRoute int64         // decisions with no common cluster (Next == None)
	Elapsed time.Duration // wall-clock, host-measured
	Workers int           // workers actually used
	Batch   int           // batch size actually used
}

// Rate returns the measured throughput in lookups per second.
func (r Report) Rate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Lookups) / r.Elapsed.Seconds()
}

// Run drives eng with cfg.Workers concurrent workers until the lookup
// budget or duration runs out, recording per-lookup latency (batch time
// divided by batch size) into lat (nil is fine — recording is skipped).
// Each worker pins the engine's current table once per batch, so Run is
// safe to race with Engine.Swap. It returns an error, and runs nothing, for
// a table with no vertices or a negative or NaN Skew.
func Run(eng *dataplane.Engine, cfg Config, lat *obs.Histogram) (Report, error) {
	n := eng.Table().N()
	if n <= 0 {
		return Report{}, errors.New("traffic: the table has no vertices")
	}
	if !(cfg.Skew >= 0) {
		return Report{}, fmt.Errorf("traffic: skew %v, want a number >= 0", cfg.Skew)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = 256
	}
	zipf := NewZipf(n, cfg.Skew)

	// Split the lookup budget across workers up front (not a shared atomic
	// counter): each worker's draw count is then scheduling-independent,
	// which is what makes the workload replayable.
	budgets := make([]int64, workers)
	for w := range budgets {
		if cfg.Lookups > 0 {
			budgets[w] = cfg.Lookups / int64(workers)
			if int64(w) < cfg.Lookups%int64(workers) {
				budgets[w]++
			}
		} else {
			budgets[w] = math.MaxInt64
		}
	}
	deadline := time.Time{}
	if cfg.Duration > 0 {
		deadline = time.Now().Add(cfg.Duration)
	}
	perWorkerRate := 0.0
	if cfg.Rate > 0 {
		perWorkerRate = cfg.Rate / float64(workers)
	}

	var lookups, arrived, noRoute atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := NewStream(cfg.Seed, w)
			dst := make([]dataplane.Label, batch)
			out := make([]dataplane.NextHop, batch)
			var done int64 // this worker's lookups, for budget and pacing
			workerStart := time.Now()
			for done < budgets[w] {
				want := int64(batch)
				if left := budgets[w] - done; left < want {
					want = left // partial final batch
				}
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				src := int(rng.Next() % uint64(n))
				for i := int64(0); i < want; i++ {
					dst[i] = dataplane.Label(zipf.Rank(rng.Next()))
				}
				tab := eng.Table() // pin one snapshot per batch
				t0 := time.Now()
				tab.LookupBatch(src, dst[:want], out[:want])
				dur := time.Since(t0)
				lat.RecordN(dur.Nanoseconds()/want, want)
				var arr, nor int64
				for i := int64(0); i < want; i++ {
					if out[i].Arrived {
						arr++
					} else if out[i].Next == dataplane.None {
						nor++
					}
				}
				lookups.Add(want)
				arrived.Add(arr)
				noRoute.Add(nor)
				done += want
				if perWorkerRate > 0 {
					ahead := time.Duration(float64(done)/perWorkerRate*1e9)*time.Nanosecond - time.Since(workerStart)
					if ahead > 0 {
						time.Sleep(ahead)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return Report{
		Lookups: lookups.Load(),
		Arrived: arrived.Load(),
		NoRoute: noRoute.Load(),
		Elapsed: time.Since(start),
		Workers: workers,
		Batch:   batch,
	}, nil
}
