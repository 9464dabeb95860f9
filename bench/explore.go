package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/hopset"
	"lowmemroute/internal/trace"
)

// exploreInstance is one input of the explore workload: a grid in CSR form
// and the sources of the exploration.
type exploreInstance struct {
	seed    int64
	csr     *graph.CSR
	sources []int
}

// genExplore generates instance i, returning how long the grid took to
// generate (the op's share of the run's set-up). It places one source
// uniformly in each cell of a lattice×lattice partition of the grid:
// spreading the sources keeps the explored area, and with it the op's cost,
// from depending on where random sources happen to cluster.
func (r *run) genExplore(i int) (*exploreInstance, float64, error) {
	seed := r.instanceSeed(i)
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Now()
	csr, err := graph.GenerateCSR(r.w.family, r.w.n, rng)
	if err != nil {
		return nil, 0, fmt.Errorf("generate instance %d: %w", i, err)
	}
	gen := time.Since(t0).Seconds()
	// GenerateCSR lays the grid out row-major with round(√n) rows.
	rows := int(math.Round(math.Sqrt(float64(r.w.n))))
	cols := csr.N() / rows
	ch, cw := rows/r.w.lattice, cols/r.w.lattice
	var sources []int
	for a := 0; a < r.w.lattice; a++ {
		for b := 0; b < r.w.lattice; b++ {
			sources = append(sources, (a*ch+rng.Intn(ch))*cols+b*cw+rng.Intn(cw))
		}
	}
	return &exploreInstance{seed: seed, csr: csr, sources: sources}, gen, nil
}

// exploration is the result of one explore op.
type exploration struct {
	dist           []float64
	parent, origin []int
	out            outcome
	boot, wall     float64 // seconds: engine construction, and construction plus exploration
	alloc          uint64
}

// explore runs one op: boot a fresh engine on the instance's CSR and run a
// hop-bounded exploration from its sources. With rec non-nil the engine
// streams round samples into rec, and the op records a span per layer call.
func (r *run) explore(in *exploreInstance, rec *trace.Recorder) (exploration, error) {
	opts := []congest.Option{congest.WithSeed(in.seed)}
	if rec != nil {
		opts = append(opts, congest.WithTrace(rec))
	}
	runtime.GC() // every op starts from the same heap state
	a0 := totalAlloc()
	t0 := time.Now()
	sp := rec.Begin("boot")
	sim := congest.NewTopo(in.csr, opts...)
	sp.End()
	boot := time.Since(t0)
	rec.Attach(sim)
	sp = rec.Begin("explore")
	dist, parent, origin, err := hopset.DistToSet(sim, in.sources, r.w.hops)
	sp.End()
	wall := time.Since(t0)
	e := exploration{
		dist: dist, parent: parent, origin: origin,
		boot: boot.Seconds(), wall: wall.Seconds(), alloc: totalAlloc() - a0,
		out: outcome{Rounds: sim.Rounds(), Messages: sim.Messages(), Words: sim.Words(), PeakMem: sim.PeakMemory()},
	}
	for _, d := range dist {
		if d != graph.Infinity {
			e.out.Reached++
		}
	}
	return e, err
}

func (r *run) runExplore() error {
	var setup, walls, allocs, boots []float64
	var msgs int64
	var first *exploreInstance
	for i := 0; i < r.opCount(); i++ {
		in, gen, err := r.genExplore(i)
		if err != nil {
			return err
		}
		if i == 0 {
			first = in
		}
		setup = append(setup, gen)
		e, err := r.explore(in, nil)
		r.verifying(func() error {
			if err != nil {
				return fmt.Errorf("instance %d: %w", i, err)
			}
			walls = append(walls, e.wall)
			allocs = append(allocs, float64(e.alloc))
			boots = append(boots, e.boot)
			msgs += e.out.Messages
			return r.checkExploration(i, in, e)
		})
		r.outcomes = append(r.outcomes, e.out)
	}
	if len(walls) == 0 {
		return fmt.Errorf("every exploration failed")
	}
	// An untimed second run of instance 0 must reproduce it exactly.
	r.verifying(func() error {
		e, err := r.explore(first, nil)
		if err == nil && e.out != r.outcomes[0] {
			err = fmt.Errorf("rerunning instance 0 gave %+v, first run %+v", e.out, r.outcomes[0])
		}
		return err
	})
	r.setOpMetrics(setup, walls, allocs)
	r.note("sim_msgs_per_s=%.4g boot_p50_ms=%.4g", float64(msgs)/sum(walls), median(boots)*1e3)
	return nil
}

// traceExplore runs the first instances traced and untraced and folds the
// traced runs into the per-layer ledger.
func (r *run) traceExplore() error {
	l := newLedger()
	var setup, boots []float64
	for i := 0; i < min(tracedOps, r.opCount()); i++ {
		in, gen, err := r.genExplore(i)
		if err != nil {
			return err
		}
		setup = append(setup, gen)
		var traced, plain exploration
		var buf bytes.Buffer
		err = inPairs(i, func(withTrace bool) error {
			if !withTrace {
				e, err := r.explore(in, nil)
				plain = e
				return err
			}
			rec := trace.NewRecorder()
			e, err := r.explore(in, rec)
			traced = e
			if err == nil {
				err = rec.WriteJSON(&buf)
			}
			return err
		})
		if err != nil {
			r.count(fmt.Errorf("instance %d: %w", i, err))
			continue
		}
		if i == 0 {
			if err := r.saveTrace(buf.Bytes()); err != nil {
				return err
			}
		}
		r.verifying(func() error {
			ex, err := trace.ReadJSON(&buf)
			if err != nil {
				return err
			}
			if err := l.add(ex, traced.wall, plain.wall); err != nil {
				return fmt.Errorf("instance %d: %w", i, err)
			}
			if traced.out != plain.out {
				return fmt.Errorf("instance %d: traced exploration gave %+v, untraced %+v", i, traced.out, plain.out)
			}
			boots = append(boots, plain.boot)
			l.sum("hopset.reached", float64(plain.out.Reached))
			return r.checkExploration(i, in, plain)
		})
	}
	if len(boots) == 0 {
		return fmt.Errorf("no traced exploration succeeded")
	}
	l.finish(r.metrics)
	r.metrics["graph.generate_ms"] = median(setup) * 1e3
	r.metrics["congest.boot_ms"] = median(boots) * 1e3
	return nil
}

// checkExploration checks an exploration against hopBoundedDist, plain
// multi-source Bellman-Ford limited to the same hop budget. The engine's
// explorer may beat that bound - it forwards an estimate whenever its
// distance or its remaining hop budget improves, so a merged estimate can
// ride a longer path - but it must reach every vertex the bound reaches,
// and never report less than a real walk: each reached vertex other than a
// source hangs off a neighbour by a real arc, at no less than that
// neighbour's distance plus the arc's weight.
func (r *run) checkExploration(i int, in *exploreInstance, e exploration) error {
	want := hopBoundedDist(in.csr, in.sources, r.w.hops)
	isSource := map[int]bool{}
	for _, s := range in.sources {
		isSource[s] = true
	}
	for v, d := range e.dist {
		switch {
		case d > want[v]:
			return fmt.Errorf("instance %d: vertex %d at %v, %d-hop distance %v", i, v, d, r.w.hops, want[v])
		case d == graph.Infinity:
		case isSource[v]:
			if d != 0 || e.origin[v] != v {
				return fmt.Errorf("instance %d: source %d at %v from %d", i, v, d, e.origin[v])
			}
		case !isSource[e.origin[v]]:
			return fmt.Errorf("instance %d: vertex %d claims origin %d, not a source", i, v, e.origin[v])
		default:
			p := e.parent[v]
			w, ok := graph.TopoEdgeWeight(in.csr, p, v)
			if !ok {
				return fmt.Errorf("instance %d: vertex %d hangs off %d, not a neighbour", i, v, p)
			}
			if d < e.dist[p]+w {
				return fmt.Errorf("instance %d: vertex %d at %v, below parent %d at %v plus link %v", i, v, d, p, e.dist[p], w)
			}
		}
	}
	return r.checkOutcome(i, e.out)
}

// hopBoundedDist returns each vertex's distance to the nearest source over
// paths of at most hops links (graph.Infinity beyond), by synchronous
// Bellman-Ford rounds over the CSR's arcs.
func hopBoundedDist(c *graph.CSR, sources []int, hops int) []float64 {
	cur := make([]float64, c.N())
	for v := range cur {
		cur[v] = graph.Infinity
	}
	for _, s := range sources {
		cur[s] = 0
	}
	next := append([]float64(nil), cur...)
	for h := 0; h < hops; h++ {
		changed := false
		for u, du := range cur {
			if du == graph.Infinity {
				continue
			}
			nbrs, arc := c.NeighborRange(u)
			for j, v := range nbrs {
				if d := du + c.ArcWeight(arc+j); d < next[v] {
					next[v] = d
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		copy(cur, next)
	}
	return next
}
