// Package dataplane is the high-throughput forwarding half of the system:
// it compiles a built cluster-forest routing scheme (internal/clusterroute)
// into immutable, cache-friendly flat arrays and serves forwarding decisions
// out of them at millions of lookups per second.
//
// The control plane (internal/core, the paper's distributed construction)
// produces pointer-rich Go structures — cluster trees with member-indexed
// tree-routing schemes, per-label slices of pivot entries — that are
// convenient to build incrementally but slow to walk: every hop searches a
// tree's member list and chases several heap objects. Compile flattens them
// once into CSR-style arrays:
//
//   - memberships: for each vertex, its cluster-tree entries (root, DFS
//     interval, parent, heavy child, up-edge weight) sorted by root, so a
//     forwarding decision finds its tree by binary search over a contiguous
//     int32 slice;
//   - labels: for each destination, its in-cluster pivot entries in level
//     order (root, target DFS entry time, light-edge list), exactly the
//     bytes a packet would carry as its address.
//
// A compiled Table is immutable: every method is a pure read, safe for any
// number of concurrent readers with no locks and no per-lookup allocation.
// Rebuilds never mutate a live table — Engine holds the current table in an
// atomic.Pointer and swaps in a freshly compiled one (copy-on-write), so
// in-flight lookups always see a complete, consistent table, never a torn
// one. Readers pin a table once per batch (Engine.Table) and do the whole
// batch against that snapshot.
//
// The forwarding rule is the routing phase of the paper: pick the lowest
// level of the destination label whose pivot cluster contains both
// endpoints, then follow the Thorup-Zwick tree-routing rule in that cluster
// tree. A compiled Table is the only forwarder of cluster-forest schemes
// and of Thorup-Zwick tree schemes, which compile as one-cluster schemes
// (clusterroute.FromTree): the facade's routes and tree routes, its packet
// network (RouteAround, a walk that detours around crashed vertices), the
// stretch measurements and Table 2's exactness checks all walk it. The
// tests in this package check every pair's walk against the unique tree
// path of the chosen cluster tree and pin walks and detours to digests.
package dataplane

import (
	"fmt"
	"slices"
	"sync/atomic"

	"lowmemroute/internal/clusterroute"
)

// Label addresses a destination in a compiled table: its vertex id. The
// compiled table holds every vertex's routing label, so a packet needs only
// this one word of address.
type Label int32

// None marks an absent vertex or entry (mirrors graph.NoVertex).
const None int32 = -1

// NextHop is one compiled forwarding decision.
type NextHop struct {
	// Next is the neighbor to forward into; the current vertex itself when
	// Arrived, None when the table holds no route.
	Next int32
	// Root is the cluster-tree center chosen for the packet (None when
	// Arrived at the source or when no route exists). It travels in the
	// packet header: later hops stay in this tree.
	Root int32
	// Entry is the compiled label-entry index behind Root; pass it to
	// Table.Step to make the packet's subsequent hop decisions.
	Entry int32
	// Arrived reports that the destination is the current vertex.
	Arrived bool
}

// Table is a compiled routing scheme: immutable flat arrays, shared freely
// across goroutines. Build one with Compile; swap rebuilds through Engine.
type Table struct {
	n int

	// Vertex memberships, CSR over vertices, sorted by root within a vertex.
	memStart  []int32 // len n+1: memberships of v are [memStart[v], memStart[v+1])
	memRoot   []int32 // cluster center, ascending per vertex
	memIn     []int32 // DFS interval of v in that tree
	memOut    []int32
	memParent []int32   // tree parent (None at the root)
	memHeavy  []int32   // heavy child (None at leaves)
	memWUp    []float64 // weight of the tree edge to the parent (0 at the root)

	// Destination labels, CSR over vertices; only in-cluster pivot entries
	// (the only routable ones), in hierarchy-level order.
	labStart []int32 // len n+1
	labRoot  []int32
	labIn    []int32 // target's DFS entry time in that tree
	labLight []int32 // len(labRoot)+1: light edges of entry e are [labLight[e], labLight[e+1])

	lightParent []int32
	lightChild  []int32
}

// Compile flattens a built scheme into an immutable Table. It is the only
// allocating operation in this package; everything after it is pure reads.
func Compile(s *clusterroute.Scheme) *Table {
	n := len(s.Labels)
	t := &Table{n: n}

	// Memberships: the scheme counts them per vertex, so the CSR offsets
	// are a prefix sum, and one pass over the clusters in ascending center
	// order fills each vertex's entries already sorted by root, as
	// member() needs.
	t.memStart = make([]int32, n+1)
	for v := 0; v < n; v++ {
		t.memStart[v+1] = t.memStart[v] + int32(s.Memberships(v))
	}
	mems := t.memStart[n]
	t.memRoot = make([]int32, mems)
	t.memIn = make([]int32, mems)
	t.memOut = make([]int32, mems)
	t.memParent = make([]int32, mems)
	t.memHeavy = make([]int32, mems)
	t.memWUp = make([]float64, mems)
	next := make([]int32, n)
	copy(next, t.memStart[:n])
	for center := 0; center < n; center++ {
		c := s.Cluster(center)
		if c == nil {
			continue
		}
		for i, tab := range c.Scheme.Tables {
			v := c.Tree.MemberAt(i)
			k := next[v]
			next[v]++
			t.memRoot[k] = int32(center)
			t.memIn[k] = int32(tab.In)
			t.memOut[k] = int32(tab.Out)
			t.memParent[k] = int32(tab.Parent)
			t.memHeavy[k] = int32(tab.Heavy)
			t.memWUp[k] = c.Weights[i]
		}
	}

	// Labels: only in-cluster entries, in hierarchy-level order.
	var labs, lights int
	for v := 0; v < n; v++ {
		for _, e := range s.Labels[v].Entries {
			if e.InCluster {
				labs++
				lights += len(e.TreeLabel.Light)
			}
		}
	}
	t.labStart = make([]int32, n+1)
	t.labRoot = make([]int32, 0, labs)
	t.labIn = make([]int32, 0, labs)
	t.labLight = make([]int32, 1, labs+1)
	t.lightParent = make([]int32, 0, lights)
	t.lightChild = make([]int32, 0, lights)
	for v := 0; v < n; v++ {
		for _, e := range s.Labels[v].Entries {
			if !e.InCluster {
				continue
			}
			t.labRoot = append(t.labRoot, int32(e.Root))
			t.labIn = append(t.labIn, int32(e.TreeLabel.In))
			for _, le := range e.TreeLabel.Light {
				t.lightParent = append(t.lightParent, int32(le.Parent))
				t.lightChild = append(t.lightChild, int32(le.Child))
			}
			t.labLight = append(t.labLight, int32(len(t.lightParent)))
		}
		t.labStart[v+1] = int32(len(t.labRoot))
	}
	return t
}

// N returns the vertex count the table was compiled for.
func (t *Table) N() int { return t.n }

// MemberCount returns the total number of (vertex, cluster-tree)
// memberships — the table's dominant size term.
func (t *Table) MemberCount() int { return len(t.memRoot) }

// member finds v's membership entry for the given root by binary search
// over its sorted membership roots; returns -1 when v is not in that tree.
func (t *Table) member(v int, root int32) int32 {
	lo, hi := t.memStart[v], t.memStart[v+1]
	for lo < hi {
		mid := (lo + hi) >> 1
		if t.memRoot[mid] < root {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < t.memStart[v+1] && t.memRoot[lo] == root {
		return lo
	}
	return -1
}

// stepMem applies the Thorup-Zwick forwarding rule at the vertex whose
// membership entry is ve, toward label entry le (same tree): deliver if the
// target is this vertex; go to the parent if the target is outside the
// subtree; follow the recorded light edge out of v if the target's label
// names one; otherwise descend to the heavy child.
func (t *Table) stepMem(v int, ve, le int32) (next int32, arrived bool) {
	tIn := t.labIn[le]
	if tIn == t.memIn[ve] {
		return int32(v), true
	}
	if tIn < t.memIn[ve] || tIn > t.memOut[ve] {
		return t.memParent[ve], false
	}
	for i := t.labLight[le]; i < t.labLight[le+1]; i++ {
		if t.lightParent[i] == int32(v) {
			return t.lightChild[i], false
		}
	}
	return t.memHeavy[ve], false
}

// selectEntry picks the destination label's lowest-level entry whose
// cluster tree contains src.
// Returns (-1, -1) when no common cluster exists.
func (t *Table) selectEntry(src, dst int) (le, ve int32) {
	for e := t.labStart[dst]; e < t.labStart[dst+1]; e++ {
		if m := t.member(src, t.labRoot[e]); m >= 0 {
			return e, m
		}
	}
	return -1, -1
}

// Lookup makes one forwarding decision at src toward dst: it selects the
// packet's cluster tree (lowest mutual level) and returns the first hop.
// Allocation-free and safe for unlimited concurrent use.
func (t *Table) Lookup(src int, dst Label) NextHop {
	if src == int(dst) {
		return NextHop{Next: int32(src), Root: None, Entry: None, Arrived: true}
	}
	le, ve := t.selectEntry(src, int(dst))
	if le < 0 {
		return NextHop{Next: None, Root: None, Entry: None}
	}
	next, arrived := t.stepMem(src, ve, le)
	return NextHop{Next: next, Root: t.labRoot[le], Entry: le, Arrived: arrived}
}

// LookupBatch makes one forwarding decision per destination, all at src —
// the shape of a forwarding node draining its input queue. It fills out
// index-aligned with dst and returns the number of decisions made
// (min(len(dst), len(out))). The loop is allocation-free; callers own and
// reuse both slices across batches.
func (t *Table) LookupBatch(src int, dst []Label, out []NextHop) int {
	n := len(dst)
	if len(out) < n {
		n = len(out)
	}
	for i := 0; i < n; i++ {
		out[i] = t.Lookup(src, dst[i])
	}
	return n
}

// Step makes the forwarding decision at vertex v for a packet traveling
// toward label entry e: an earlier Lookup's NextHop.Entry, or another entry
// of the destination's label when RouteAround re-selects a tree. ok is
// false when v holds no table for e's tree — the packet left its cluster,
// which a correct walk never does.
func (t *Table) Step(v int, e int32) (next int32, arrived, ok bool) {
	ve := t.member(v, t.labRoot[e])
	if ve < 0 {
		return None, false, false
	}
	next, arrived = t.stepMem(v, ve, e)
	return next, arrived, true
}

// RouteAppend walks src → dst through the compiled table, appending the
// vertex path (inclusive of both endpoints) to path and returning it with
// the walk's weighted length: the up-edge weights of the crossed tree
// edges, summed in path order. With a caller-reused buffer it allocates
// only on buffer growth.
func (t *Table) RouteAppend(src, dst int, path []int) ([]int, float64, error) {
	if src < 0 || src >= t.n || dst < 0 || dst >= t.n {
		return path, 0, fmt.Errorf("dataplane: endpoints (%d,%d) out of range", src, dst)
	}
	if src == dst {
		return append(path, src), 0, nil
	}
	le, ve := t.selectEntry(src, dst)
	if le < 0 {
		return path, 0, fmt.Errorf("dataplane: no common cluster for %d -> %d", src, dst)
	}
	path = append(path, src)
	var total float64
	cur, curMem := src, ve
	limit := 2*t.n + 2
	for steps := 0; ; steps++ {
		if steps > limit {
			return path, 0, fmt.Errorf("dataplane: routing loop in tree %d from %d to %d", t.labRoot[le], src, dst)
		}
		next, arrived := t.stepMem(cur, curMem, le)
		if arrived {
			return path, total, nil
		}
		if next == None {
			return path, 0, fmt.Errorf("dataplane: dead end at %d in tree %d", cur, t.labRoot[le])
		}
		nextMem := t.member(int(next), t.labRoot[le])
		if nextMem < 0 {
			return path, 0, fmt.Errorf("dataplane: vertex %d lacks table for tree %d", next, t.labRoot[le])
		}
		if next == t.memParent[curMem] {
			total += t.memWUp[curMem]
		} else {
			total += t.memWUp[nextMem]
		}
		path = append(path, int(next))
		cur, curMem = int(next), nextMem
	}
}

// Route is RouteAppend with a fresh path buffer.
func (t *Table) Route(src, dst int) ([]int, float64, error) {
	return t.RouteAppend(src, dst, nil)
}

// RouteAround walks src → dst like a forwarding network whose vertices
// marked in down have crashed, appending every vertex the packet visits to
// path. It makes hop by hop the decisions each node would make: a node
// about to forward into a crashed neighbor re-chooses the packet's cluster
// tree from the destination label's remaining entries (reroute), and a node
// with no usable fallback sends the packet one hop back along its walk
// (crankback), so upstream nodes, ultimately the source, retry with the
// trees they hold. The mask is read at every hop, so vertices may crash and
// recover while walks are in flight: a packet that reaches a vertex that
// crashed after it was forwarded there is lost. The result counts the tree
// re-selections; a delivery with any is degraded, a valid scheme walk plus
// its detour. A crashed or out-of-range source fails before the walk.
func (t *Table) RouteAround(src, dst int, down []atomic.Bool, path []int) ([]int, int, error) {
	if src < 0 || src >= t.n || dst < 0 || dst >= t.n {
		return path, 0, fmt.Errorf("dataplane: endpoints (%d,%d) out of range", src, dst)
	}
	if down[src].Load() {
		return path, 0, fmt.Errorf("dataplane: source %d is crashed", src)
	}
	var (
		entry    = None
		tried    []int32 // roots abandoned because their walk ran into a crash
		upstream []int   // hops walked forward, for crankback
		reroutes int
		crank    bool // walking back, looking for a usable fallback tree
	)
	// reroute re-chooses the tree at v, in level order (the fallback is the
	// lowest-stretch tree still usable): one v holds, not abandoned already,
	// whose next hop from v is alive. None when no candidate remains.
	reroute := func(v int) int32 {
		if root := t.labRoot[entry]; !slices.Contains(tried, root) {
			tried = append(tried, root)
		}
		for e := t.labStart[dst]; e < t.labStart[dst+1]; e++ {
			if slices.Contains(tried, t.labRoot[e]) {
				continue
			}
			next, arrived, ok := t.Step(v, e)
			if !ok || arrived || next == None || down[next].Load() {
				continue
			}
			entry = e
			reroutes++
			return next
		}
		return None
	}
	for v := src; ; {
		path = append(path, v)
		if down[v].Load() {
			return path, reroutes, fmt.Errorf("dataplane: packet lost at crashed node %d", v)
		}
		// Crankback lengthens the walk by up to one round trip per abandoned
		// tree, so the TTL scales with the trees tried.
		if len(path) > (2*t.n+2)*(1+len(tried)) {
			return path, reroutes, fmt.Errorf("dataplane: ttl exceeded at %d", v)
		}
		if entry == None {
			hop := t.Lookup(v, Label(dst))
			if hop.Arrived {
				return path, reroutes, nil
			}
			if hop.Next == None {
				return path, reroutes, fmt.Errorf("dataplane: no common cluster at source %d", v)
			}
			entry = hop.Entry
		}
		var next int32
		if crank {
			crank = false
			next = reroute(v)
		} else {
			var arrived, ok bool
			next, arrived, ok = t.Step(v, entry)
			switch {
			case !ok:
				return path, reroutes, fmt.Errorf("dataplane: node %d lacks tree %d", v, t.labRoot[entry])
			case arrived:
				return path, reroutes, nil
			case next == None:
				return path, reroutes, fmt.Errorf("dataplane: dead end at %d", v)
			case down[next].Load():
				next = reroute(v)
			}
		}
		if next != None {
			upstream = append(upstream, v)
			v = int(next)
			continue
		}
		// The tree is dead and v holds no fallback: back one hop. The walk
		// crossed real links, so the reverse hop exists.
		if len(upstream) == 0 {
			return path, reroutes, fmt.Errorf("dataplane: no usable cluster tree reaches %d after crashes (tried %v)", dst, tried)
		}
		v = upstream[len(upstream)-1]
		upstream = upstream[:len(upstream)-1]
		if down[v].Load() {
			return path, reroutes, fmt.Errorf("dataplane: upstream hop %d crashed during crankback to %d", v, dst)
		}
		crank = true
	}
}

// Engine holds the live compiled table behind an atomic pointer: readers
// load it lock-free (pin one table per batch), rebuilds swap in a complete
// new table (copy-on-write) so concurrent lookups never observe a partial
// update. The zero value is not ready; use NewEngine.
type Engine struct {
	tab atomic.Pointer[Table]
}

// NewEngine returns an engine serving t.
func NewEngine(t *Table) *Engine {
	e := &Engine{}
	e.tab.Store(t)
	return e
}

// Table returns the current compiled table. Callers should load once per
// batch and run the whole batch against that snapshot; the snapshot stays
// valid (immutable) even after a concurrent Swap.
func (e *Engine) Table() *Table { return e.tab.Load() }

// Swap installs a freshly compiled table and returns the previous one.
// In-flight batches keep reading the table they pinned; new batches see the
// new table. Safe for concurrent use with any number of readers.
func (e *Engine) Swap(t *Table) (old *Table) { return e.tab.Swap(t) }
