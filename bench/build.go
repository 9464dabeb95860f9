package main

import (
	"bytes"
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	lmr "lowmemroute"
	"lowmemroute/internal/congest"
	"lowmemroute/internal/dataplane/traffic"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/trace"
)

// stretchSlack is the o(1) term of the 4k-3+o(1) stretch bound (Theorem 3,
// the variant implemented): the same allowance the core package's tests use.
const stretchSlack = 0.5

// genNetwork generates instance i through the facade and returns how long
// that took: the op's share of the run's set-up.
func (r *run) genNetwork(i int) (*lmr.Network, float64, error) {
	t0 := time.Now()
	net, err := lmr.Generate(r.w.family, r.w.n, r.instanceSeed(i))
	if err != nil {
		return nil, 0, fmt.Errorf("generate instance %d: %w", i, err)
	}
	return net, time.Since(t0).Seconds(), nil
}

// oracleTopo regenerates instance i in CSR form, for the checks that need
// link weights and for timing the engine's constructor. GenerateCSR gives
// the same graph as the generator behind the facade's Generate (the graph
// package property-tests the two as bit-identical).
func (r *run) oracleTopo(i int) (*graph.CSR, error) {
	return graph.GenerateCSR(r.w.family, r.w.n, rand.New(rand.NewSource(r.instanceSeed(i))))
}

// timedBuild builds instance i and returns the scheme, the build's wall
// time in seconds and the heap it allocated. Every build starts from a
// freshly collected heap, so that garbage left by earlier ops does not make
// the collector's work land on some builds and not others.
func (r *run) timedBuild(net *lmr.Network, i int, tr *lmr.Tracer) (*lmr.Scheme, float64, uint64, error) {
	runtime.GC()
	a0 := totalAlloc()
	t0 := time.Now()
	s, err := lmr.Build(net, lmr.Config{K: r.w.k, Seed: r.instanceSeed(i), Trace: tr})
	wall := time.Since(t0).Seconds()
	alloc := totalAlloc() - a0
	if err != nil {
		return nil, 0, 0, fmt.Errorf("build instance %d: %w", i, err)
	}
	return s, wall, alloc, nil
}

func (r *run) runBuild() error {
	var setup, walls, allocs []float64
	var msgs int64
	var first *lmr.Network
	for i := 0; i < r.opCount(); i++ {
		net, gen, err := r.genNetwork(i)
		if err != nil {
			return err
		}
		if i == 0 {
			first = net
		}
		setup = append(setup, gen)
		s, wall, alloc, err := r.timedBuild(net, i, nil)
		o := outcome{}
		r.verifying(func() error {
			if err != nil {
				return err
			}
			walls = append(walls, wall)
			allocs = append(allocs, float64(alloc))
			msgs += s.Report().Messages
			o, err = r.checkScheme(i, s, nil)
			return err
		})
		r.outcomes = append(r.outcomes, o)
	}
	if len(walls) == 0 {
		return fmt.Errorf("every build failed")
	}
	// An untimed second build of instance 0 must reproduce it exactly.
	r.verifying(func() error {
		s, _, _, err := r.timedBuild(first, 0, nil)
		if err != nil {
			return err
		}
		o, err := r.checkScheme(0, s, nil)
		if err == nil && o != r.outcomes[0] {
			err = fmt.Errorf("rebuilding instance 0 gave %+v, first build %+v", o, r.outcomes[0])
		}
		return err
	})
	r.setOpMetrics(setup, walls, allocs)
	r.note("sim_msgs_per_s=%.4g (simulated messages per wall second of building)", float64(msgs)/sum(walls))
	return nil
}

// checkScheme routes w.checkPairs sampled pairs of instance i through s and
// checks each path against the instance's graph: it joins the pair over
// real links, weighs what those links weigh, and stretches at most
// 4k-3+stretchSlack over the exact distance. With dp non-nil every pair is
// also routed through the compiled table, which must return the same path.
// It returns the instance's outcome, compared with the golden one.
func (r *run) checkScheme(i int, s *lmr.Scheme, dp *lmr.DataPlane) (outcome, error) {
	g, err := r.oracleTopo(i)
	if err != nil {
		return outcome{}, err
	}
	rep := s.Report()
	o := outcome{
		Rounds: rep.Rounds, Messages: rep.Messages, Words: rep.Words, PeakMem: rep.PeakMemory,
		TableWords: rep.MaxTableWords, LabelWords: rep.MaxLabelWords,
	}
	bound := float64(4*r.w.k-3) + stretchSlack
	rng := rand.New(rand.NewSource(r.instanceSeed(i)))
	exact := map[int][]float64{}
	for j := 0; j < r.w.checkPairs; j++ {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u == v {
			v = (v + 1) % g.N()
		}
		p, err := s.Route(u, v)
		if err != nil {
			return o, fmt.Errorf("instance %d: route %d→%d: %w", i, u, v, err)
		}
		if err := checkPath(g, u, v, p); err != nil {
			return o, fmt.Errorf("instance %d: %w", i, err)
		}
		if dp != nil {
			q, err := dp.Route(u, v)
			if err != nil || q.Weight != p.Weight || !slices.Equal(q.Nodes, p.Nodes) {
				return o, fmt.Errorf("instance %d: compiled route %d→%d is %v (%v), scheme's %v", i, u, v, q.Nodes, err, p.Nodes)
			}
		}
		if exact[u] == nil {
			exact[u] = dijkstra(g, u)
		}
		st := p.Weight / exact[u][v]
		if st > bound {
			return o, fmt.Errorf("instance %d: route %d→%d has stretch %.3f > %.1f", i, u, v, st, bound)
		}
		o.StretchMax = math.Max(o.StretchMax, st)
		o.StretchAvg += st / float64(r.w.checkPairs)
	}
	return o, r.checkOutcome(i, o)
}

// checkPath checks that p joins u to v over links of g and weighs their sum.
func checkPath(g graph.Topology, u, v int, p lmr.Path) error {
	if len(p.Nodes) == 0 || p.Nodes[0] != u || p.Nodes[len(p.Nodes)-1] != v {
		return fmt.Errorf("route %d→%d walked %v", u, v, p.Nodes)
	}
	var w float64
	for j := 1; j < len(p.Nodes); j++ {
		lw, ok := graph.TopoEdgeWeight(g, p.Nodes[j-1], p.Nodes[j])
		if !ok {
			return fmt.Errorf("route %d→%d crosses non-link {%d,%d}", u, v, p.Nodes[j-1], p.Nodes[j])
		}
		w += lw
	}
	if math.Abs(w-p.Weight) > 1e-9*math.Max(1, w) {
		return fmt.Errorf("route %d→%d reports weight %v, its links weigh %v", u, v, p.Weight, w)
	}
	return nil
}

// dijkstra returns the exact distance from src to every vertex of g
// (graph.Infinity where unreachable).
func dijkstra(g graph.Topology, src int) []float64 {
	dist := make([]float64, g.N())
	for v := range dist {
		dist[v] = graph.Infinity
	}
	dist[src] = 0
	h := &distHeap{{0, src}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.d > dist[it.v] {
			continue // a stale entry: it.v was settled closer
		}
		nbrs, arc := g.NeighborRange(it.v)
		for j, v := range nbrs {
			if d := it.d + g.ArcWeight(arc+j); d < dist[v] {
				dist[v] = d
				heap.Push(h, distItem{d, int(v)})
			}
		}
	}
	return dist
}

type distItem struct {
	d float64
	v int
}

// distHeap is a min-heap of tentative distances for container/heap.
type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// inPairs calls f(true) and f(false), traced and untraced, alternating which
// goes first so that drift on the host favours neither side.
func inPairs(i int, f func(traced bool) error) error {
	first := i%2 == 0
	if err := f(first); err != nil {
		return err
	}
	return f(!first)
}

// traceBuilds builds the first ops instances, each twice, with and without
// a facade Tracer, and folds the traced build's exported spans and round
// samples into the per-layer ledger. The untraced twin gives the tracing
// overhead and the engine's per-round and per-message cost.
func (r *run) traceBuilds(ops int) error {
	l := newLedger()
	var setup, boots []float64
	var first *lmr.Scheme
	for i := 0; i < ops; i++ {
		net, gen, err := r.genNetwork(i)
		if err != nil {
			return err
		}
		setup = append(setup, gen)
		var traced, plain *lmr.Scheme
		var tw, pw float64
		var tr *lmr.Tracer
		err = inPairs(i, func(withTrace bool) error {
			if !withTrace {
				s, wall, _, err := r.timedBuild(net, i, nil)
				plain, pw = s, wall
				return err
			}
			tr = lmr.NewTracer()
			s, wall, _, err := r.timedBuild(net, i, tr)
			traced, tw = s, wall
			return err
		})
		if err != nil {
			r.count(err)
			continue
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			return fmt.Errorf("export trace: %w", err)
		}
		if i == 0 {
			first = plain
			if err := r.saveTrace(buf.Bytes()); err != nil {
				return err
			}
		}
		r.verifying(func() error {
			ex, err := trace.ReadJSON(&buf)
			if err != nil {
				return err
			}
			if err := l.add(ex, tw, pw); err != nil {
				return fmt.Errorf("instance %d: %w", i, err)
			}
			o, err := r.checkScheme(i, plain, nil)
			if err != nil {
				return err
			}
			if ot, _ := r.checkScheme(i, traced, nil); ot != o {
				return fmt.Errorf("instance %d: traced build gave %+v, untraced %+v", i, ot, o)
			}
			l.sum("hopset.edges", float64(plain.Report().HopsetEdges))
			l.sum("clusterroute.table_words_max", float64(o.TableWords))
			l.sum("clusterroute.label_words_max", float64(o.LabelWords))
			l.sum("clusterroute.stretch_max", o.StretchMax)
			l.sum("clusterroute.stretch_avg", o.StretchAvg)
			return nil
		})
		// The facade builds its engine inside Build, where no span covers
		// it; time the engine's constructor on the same instance on its own.
		c, err := r.oracleTopo(i)
		if err != nil {
			return err
		}
		t0 := time.Now()
		congest.NewTopo(c, congest.WithSeed(r.instanceSeed(i)))
		boots = append(boots, time.Since(t0).Seconds())
	}
	if first == nil || len(boots) == 0 {
		return fmt.Errorf("no traced build succeeded")
	}
	l.finish(r.metrics)
	r.metrics["graph.generate_ms"] = median(setup) * 1e3
	r.metrics["congest.boot_ms"] = median(boots) * 1e3
	return r.routeLayers(first)
}

// routeLayers times the two forwarders on one sample of pairs - the
// uncompiled cluster-tree walk (Scheme.RouteAppend) and the compiled table
// (DataPlane.RouteAppend) - and the compiler itself. Both must agree on
// every route.
func (r *run) routeLayers(s *lmr.Scheme) error {
	n := uint64(r.w.n)
	st := traffic.NewStream(uint64(r.seed), 1)
	pairs := make([][2]int, r.w.routeSample)
	for j := range pairs {
		pairs[j] = [2]int{int(st.Next() % n), int(st.Next() % n)}
	}
	weights := make([]float64, len(pairs))
	hops := make([]int, len(pairs))
	var buf []int
	var routeErr error
	t0 := time.Now()
	for j, p := range pairs {
		var err error
		buf, weights[j], err = s.RouteAppend(p[0], p[1], buf[:0])
		if err != nil && routeErr == nil {
			routeErr = fmt.Errorf("route %d→%d: %w", p[0], p[1], err)
		}
		hops[j] = len(buf) - 1
	}
	uncompiled := time.Since(t0).Seconds()

	var compiles []float64
	var dp *lmr.DataPlane
	for j := 0; j < 5; j++ {
		t0 := time.Now()
		var err error
		if dp, err = lmr.Compile(s); err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		compiles = append(compiles, time.Since(t0).Seconds())
	}

	var total int
	t0 = time.Now()
	for j, p := range pairs {
		var w float64
		var err error
		buf, w, err = dp.RouteAppend(p[0], p[1], buf[:0])
		if (err != nil || w != weights[j] || len(buf)-1 != hops[j]) && routeErr == nil {
			routeErr = fmt.Errorf("compiled route %d→%d: %d hops weight %v (%v), uncompiled %d hops weight %v",
				p[0], p[1], len(buf)-1, w, err, hops[j], weights[j])
		}
		total += len(buf) - 1
	}
	compiled := time.Since(t0).Seconds()
	r.count(routeErr)

	r.metrics["clusterroute.routes_per_s"] = float64(len(pairs)) / uncompiled
	r.metrics["dataplane.routes_per_s"] = float64(len(pairs)) / compiled
	r.metrics["dataplane.hops_per_route"] = float64(total) / float64(len(pairs))
	r.metrics["dataplane.compiles_per_s"] = 1 / median(compiles)
	return nil
}

func (r *run) saveTrace(data []byte) error {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.outDir, r.w.name+".trace.json"), data, 0o644)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
