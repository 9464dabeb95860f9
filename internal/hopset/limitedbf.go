package hopset

import (
	"fmt"
	"slices"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

// Estimate is one root's distance estimate at a host vertex during a
// limited Bellman–Ford run in G′ ∪ H.
type Estimate struct {
	Root int
	Dist float64
	// Parent is the host neighbour that delivered Dist over G, or
	// graph.NoVertex at a seed and after a hopset relaxation.
	Parent int
	// Via is the tail x of the hopset edge (x, v) whose relaxation set Dist
	// at v, or graph.NoVertex when Dist came over G.
	Via int
	// Origin is the seed vertex Dist descends from: Root itself for a
	// single-seed root, the nearest seed for a root shared by several.
	Origin int
	// Joined is the caller's mark for an estimate that joins Root's tree
	// whatever its distance (Claim 9's path recovery); the kernel never
	// sets or reads it.
	Joined bool
	dirty  bool
}

// estWords is the retained size of one estimate: distance, parent and
// the root's (or, for a shared root, the origin's) id.
const estWords = 3

// Wire format of the H-step broadcast: inline words carry the sender and
// its estimate count ne; the body is ne (root, dist) pairs followed by the
// sender's hopset edges (Hopset.AppendOut).
const kindHMsg congest.PayloadKind = 3

// vr addresses one (vertex, root) estimate on the dirty worklist.
type vr struct{ v, r int }

// LimitedBF is the limited Bellman–Ford of Appendix B in G′ ∪ H, the one
// kernel behind both the approximate pivots and the approximate clusters.
// It keeps root-sorted estimates per host vertex and a worklist of the
// estimates that changed. Each iteration runs an E′ step - one B-bounded
// exploration in G from every changed estimate, through the build's
// Explorer - and an H step - one broadcast in which every virtual vertex
// ships its estimates and its stored hopset out-edges, relaxed at both
// endpoints of each edge. Estimates never drop below host distances.
//
// The workspace is recycled across runs, so a steady-state Run allocates
// nothing. Not safe for concurrent use.
type LimitedBF struct {
	ex  *Explorer
	sim *congest.Simulator
	vg  *VirtualGraph
	hs  *Hopset

	est     [][]Estimate
	dirty   []vr
	srcs    []Source
	msgs    []congest.BroadcastMsg
	bodies  congest.BodyBufs
	joins   []float64
	handler func(v int, d *congest.Delivery)
	limitFn LimitFunc

	// Per-run limits: nil bound means no limit.
	bound []float64
	eps   float64
}

// NewLimitedBF creates a kernel for vg and hs that explores through ex, on
// ex's simulator.
func NewLimitedBF(ex *Explorer, vg *VirtualGraph, hs *Hopset) *LimitedBF {
	l := &LimitedBF{ex: ex, sim: ex.sim, vg: vg, hs: hs, est: make([][]Estimate, ex.sim.N())}
	l.handler = l.onHMsg
	l.limitFn = l.forwardLimit
	return l
}

// HostLimit reports whether estimate d at host vertex v lies within the
// current run's (1+ε)-relaxed bound, bound[v]/(1+ε): the host-graph
// membership and forwarding rule of the approximate clusters.
func (l *LimitedBF) HostLimit(v, root int, d float64) bool {
	return l.bound == nil || d < l.bound[v]/(1+l.eps)
}

// virtLimit is the virtual vertices' tighter rule, bound[v]/(1+ε)².
func (l *LimitedBF) virtLimit(v int, d float64) bool {
	return l.bound == nil || d < l.bound[v]/((1+l.eps)*(1+l.eps))
}

func (l *LimitedBF) forwardLimit(v, root int, d float64) bool {
	if l.vg.IsMember(v) {
		return l.virtLimit(v, d)
	}
	return l.HostLimit(v, root, d)
}

// Estimates returns every vertex's estimates, each vertex's sorted by root,
// valid until the next Run. Callers may edit the fields of an estimate in
// place (and insert through Add), not reorder them.
func (l *LimitedBF) Estimates() [][]Estimate { return l.est }

// Sources returns a source at every estimate that keep accepts, in (vertex,
// root) order, built in the kernel's seed buffer: valid until the next Run
// or Sources.
func (l *LimitedBF) Sources(keep func(v int, e *Estimate) bool) []Source {
	l.srcs = l.srcs[:0]
	for v, es := range l.est {
		for i := range es {
			if e := &es[i]; keep(v, e) {
				l.srcs = append(l.srcs, Source{Root: e.Root, At: v, Dist: e.Dist})
			}
		}
	}
	return l.srcs
}

// Get returns root's estimate at v, or nil.
func (l *LimitedBF) Get(v, root int) *Estimate {
	es := l.est[v]
	i, ok := slices.BinarySearchFunc(es, root, func(e Estimate, r int) int { return e.Root - r })
	if !ok {
		return nil
	}
	return &es[i]
}

// Add inserts e at v, keeping root order, and charges its retained words
// to v's meter; the charge is never released. The returned pointer is
// valid until the next insert at v.
func (l *LimitedBF) Add(v int, e Estimate) *Estimate {
	i, _ := slices.BinarySearchFunc(l.est[v], e.Root, func(e Estimate, r int) int { return e.Root - r })
	l.est[v] = slices.Insert(l.est[v], i, e)
	l.sim.Mem(v).Charge(estWords)
	return &l.est[v][i]
}

func (l *LimitedBF) markDirty(v int, e *Estimate) {
	if !e.dirty {
		e.dirty = true
		l.dirty = append(l.dirty, vr{v, e.Root})
	}
}

// relax lowers root's estimate at v to d, adding it if v has none, and
// reports the estimate when it changed.
func (l *LimitedBF) relax(v, root int, d float64) *Estimate {
	e := l.Get(v, root)
	if e == nil {
		e = l.Add(v, Estimate{Root: root, Dist: graph.Infinity, Parent: graph.NoVertex, Via: graph.NoVertex, Origin: graph.NoVertex})
	} else if d >= e.Dist {
		return nil
	}
	e.Dist = d
	l.markDirty(v, e)
	return e
}

// onHMsg handles the H-step broadcast at virtual vertex w. New estimates
// charge w's meter, so the messages are read in order through At.
func (l *LimitedBF) onHMsg(w int, d *congest.Delivery) {
	if !l.vg.IsMember(w) {
		return
	}
	for i := 0; i < d.Len(); i++ {
		m := d.At(i)
		if m == nil {
			continue
		}
		p := &m.Payload
		if p.Kind != kindHMsg {
			continue
		}
		u := congest.WordInt(p.W0)
		if w == u {
			continue
		}
		ne := congest.WordInt(p.W1)
		ests := m.Body[:2*ne]
		l.joins = l.hs.AppendJoins(l.joins[:0], w, u, m.Body[2*ne:])
		for _, weight := range l.joins {
			for j := 0; j+1 < len(ests); j += 2 {
				if e := l.relax(w, congest.WordInt(ests[j]), congest.WordFloat(ests[j+1])+weight); e != nil {
					e.Parent, e.Via = graph.NoVertex, u
				}
			}
		}
	}
}

// sortDirty puts the worklist in (vertex, root) order: the order the next
// E′ step seeds in (Explore breaks ties by seed order) and the order origins
// are resolved in.
func (l *LimitedBF) sortDirty() {
	slices.SortFunc(l.dirty, func(a, c vr) int {
		if a.v != c.v {
			return a.v - c.v
		}
		return a.r - c.r
	})
}

// Run resets the estimates to seeds and iterates until no estimate changes,
// or 4(M+1) times, returning the iterations run. With a non-nil bound, an
// estimate travels on only while it is below bound[v]/(1+ε) at a host
// vertex and bound[v]/(1+ε)² at a virtual one (seeds always start); a nil
// bound limits nothing. Every estimate charges its retained words once
// (Add); callers keep whatever they read out of it.
func (l *LimitedBF) Run(seeds []Source, bound []float64, eps float64) (int, error) {
	n := l.sim.N()
	l.bound, l.eps = bound, eps
	for v := range l.est {
		l.est[v] = l.est[v][:0]
	}
	l.dirty = l.dirty[:0]
	for _, s := range seeds {
		if s.At < 0 || s.At >= n {
			return 0, fmt.Errorf("hopset: BF seed %d out of range", s.At)
		}
		if e := l.relax(s.At, s.Root, s.Dist); e != nil {
			e.Origin = s.At
		}
	}
	l.sortDirty()

	maxIter := 4 * (l.vg.M() + 1)
	iters := 0
	for ; iters < maxIter && len(l.dirty) > 0; iters++ {
		// E′ step: re-propagate every estimate that changed since the last
		// exploration (monotone BF: older influence already propagated).
		l.srcs = slices.Grow(l.srcs[:0], len(l.dirty))
		for _, k := range l.dirty {
			e := l.Get(k.v, k.r)
			e.dirty = false
			if l.forwardLimit(k.v, k.r, e.Dist) || k.v == k.r {
				l.srcs = append(l.srcs, Source{Root: k.r, At: k.v, Dist: e.Dist})
			}
		}
		l.dirty = l.dirty[:0]
		if len(l.srcs) > 0 {
			ex, err := l.ex.Explore(l.srcs, ExploreOptions{Hops: l.vg.B(), Limit: l.limitFn})
			if err != nil {
				return iters, fmt.Errorf("hopset: BF iteration %d: %w", iters, err)
			}
			for v := 0; v < n; v++ {
				for _, en := range ex.At(v) {
					if en.Parent == graph.NoVertex {
						continue // the seed's own echo
					}
					if e := l.relax(v, en.Root, en.Dist); e != nil {
						e.Parent, e.Via = en.Parent, graph.NoVertex
						e.Origin = l.Get(en.Origin, en.Root).Origin
					}
				}
			}
		}

		// H step: each virtual vertex ships its in-limit estimates, root
		// sorted, plus its root-independent out-edges.
		l.msgs = l.msgs[:0]
		for _, u := range l.vg.Members() {
			es := l.est[u]
			out := l.hs.Out(u)
			buf := l.bodies.Get(len(l.msgs), 2*len(es)+EdgeWords*len(out))
			ne := 0
			for i := range es {
				if e := &es[i]; l.virtLimit(u, e.Dist) || u == e.Root {
					buf[2*ne] = congest.IntWord(e.Root)
					buf[2*ne+1] = congest.FloatWord(e.Dist)
					ne++
				}
			}
			if ne == 0 {
				continue
			}
			l.msgs = append(l.msgs, congest.BroadcastMsg{
				Origin: u,
				Payload: congest.Payload{
					Kind: kindHMsg,
					W0:   congest.IntWord(u),
					W1:   congest.IntWord(ne),
				},
				Words: 1 + 2*ne + EdgeWords*len(out),
				Body:  l.hs.AppendOut(buf[:2*ne], u),
			})
		}
		l.sim.Broadcast(l.msgs, l.handler)
		// Resolve the origins of this H step's relaxations in (vertex,
		// root) order: an origin read here may be one this loop just wrote,
		// so arrival order must not decide which value it sees.
		l.sortDirty()
		for _, k := range l.dirty {
			if e := l.Get(k.v, k.r); e.Via != graph.NoVertex {
				e.Origin = l.Get(e.Via, k.r).Origin
			}
		}
	}
	return iters, nil
}
