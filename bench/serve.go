package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	lmr "lowmemroute"
	"lowmemroute/internal/dataplane/traffic"
	"lowmemroute/internal/obs"
)

// runServe sets up w.schemes compiled schemes, then routes packets through
// them, each for an equal slice of the run, from one client goroutine (a
// closed loop) while a second goroutine recompiles and swaps the table being
// served every w.rebuildEvery routes. Rebuilds are requested by route count,
// not by the clock, so that the heap allocated per route does not depend on
// how fast the host routes.
func (r *run) runServe() error {
	schemes := make([]*lmr.Scheme, r.w.schemes)
	planes := make([]*lmr.DataPlane, r.w.schemes)
	setup := make([]float64, r.w.schemes)
	for i := range schemes {
		net, gen, err := r.genNetwork(i)
		if err != nil {
			return err
		}
		s, build, _, err := r.timedBuild(net, i, nil)
		if err != nil {
			return err
		}
		t0 := time.Now()
		dp, err := lmr.Compile(s)
		if err != nil {
			return fmt.Errorf("compile instance %d: %w", i, err)
		}
		setup[i] = gen + build + time.Since(t0).Seconds()
		schemes[i], planes[i] = s, dp
		r.verifying(func() error {
			o, err := r.checkScheme(i, s, dp)
			r.outcomes = append(r.outcomes, o)
			return err
		})
	}
	runtime.GC()

	// Rebuild requests queue up rather than block the client: the buffer
	// holds more requests than a run's time slice can issue at twice the
	// reference host's routing rate.
	rebuilds := make(chan *lmr.DataPlane, int(r.seconds*4e6)/r.w.rebuildEvery+r.w.schemes)
	var rebuildWalls []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for dp := range rebuilds {
			t0 := time.Now()
			dp.Rebuild()
			rebuildWalls = append(rebuildWalls, time.Since(t0).Seconds())
		}
	}()

	lat := obs.NewRegistry().Histogram("route_ns", 1e-9)
	stream := traffic.NewStream(uint64(r.seed), 0)
	zipf := traffic.NewZipf(r.w.n, zipfSkew)
	slice := time.Duration(r.seconds * float64(time.Second) / float64(len(planes)))
	var buf []int
	var hops int64
	routes := 0
	a0 := totalAlloc()
	t0 := time.Now()
	for j, dp := range planes {
		end := t0.Add(time.Duration(j+1) * slice)
		// Each scheme serves at least one rebuild interval, however short
		// the run.
		for i := 0; i < r.w.rebuildEvery || time.Now().Before(end); i++ {
			src, dst := int(stream.Next()%uint64(r.w.n)), zipf.Rank(stream.Next())
			start := time.Now()
			var err error
			buf, _, err = dp.RouteAppend(src, dst, buf[:0])
			lat.Record(int64(time.Since(start)))
			if err == nil && (buf[0] != src || buf[len(buf)-1] != dst) {
				err = fmt.Errorf("route %d→%d walked %d→%d", src, dst, buf[0], buf[len(buf)-1])
			}
			r.count(err)
			hops += int64(len(buf) - 1)
			if routes++; routes%r.w.rebuildEvery == 0 {
				rebuilds <- dp
			}
		}
	}
	loop := time.Since(t0).Seconds()
	close(rebuilds)
	wg.Wait()
	alloc := totalAlloc() - a0

	// Every rebuilt table must still route exactly as its scheme does.
	for i, s := range schemes {
		r.verifying(func() error {
			o, err := r.checkScheme(i, s, planes[i])
			if err == nil && o != r.outcomes[i] {
				err = fmt.Errorf("instance %d: after rebuilds %+v, before %+v", i, o, r.outcomes[i])
			}
			return err
		})
	}

	r.ops = routes
	snap := lat.Snapshot()
	p := tailPercentile(routes)
	r.metrics["setup_s"] = median(setup)
	r.metrics["op_p50_ms"] = histQuantile(snap, 0.5) / 1e6
	r.metrics["op_tail_ms"] = histQuantile(snap, p/100) / 1e6
	r.metrics["ops_per_s"] = float64(routes) / loop
	r.metrics["alloc_mb_per_op"] = float64(alloc) / float64(routes) / 1e6
	r.note("ops=%d tail=p%g setups=%d hops_per_route=%.4g", routes, p, len(setup), float64(hops)/float64(routes))
	if len(rebuildWalls) > 0 {
		r.note("rebuilds=%d rebuild_p50_ms=%.4g", len(rebuildWalls), median(rebuildWalls)*1e3)
	}
	return nil
}
