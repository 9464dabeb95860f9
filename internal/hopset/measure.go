package hopset

import (
	"fmt"
	"math/rand"

	"lowmemroute/internal/graph"
)

// MeasureHopbound empirically determines the hop bound β of a hopset: the
// smallest t such that for every sampled pair of virtual vertices,
// d^{(t)}_{G'∪H}(u,v) ≤ (1+eps)·d_{G'}(u,v). It materialises G' (test and
// evaluation use only) and runs synchronous Bellman-Ford over G'∪H,
// recording after how many iterations every pair is (1+eps)-settled.
// Returns the measured β and the number of pairs checked, or
// materializeUnion's error.
func MeasureHopbound(vg *VirtualGraph, hs *Hopset, eps float64, pairs int, r *rand.Rand) (beta, checked int, err error) {
	m := vg.M()
	if m < 2 {
		return 0, 0, nil
	}
	gp, union, toVirt, err := materializeUnion(vg, hs)
	if err != nil {
		return 0, 0, err
	}

	members := vg.Members()
	type pair struct{ u, v int }
	sampled := make([]pair, 0, pairs)
	for i := 0; i < pairs; i++ {
		sampled = append(sampled, pair{
			u: toVirt[members[r.Intn(m)]],
			v: toVirt[members[r.Intn(m)]],
		})
	}

	for _, p := range sampled {
		if p.u == p.v {
			continue
		}
		exact := graph.Dijkstra(gp, p.u).Dist[p.v]
		if exact == graph.Infinity {
			continue
		}
		checked++
		// Find the smallest t with d^{(t)}(u,v) <= (1+eps)*exact by
		// doubling then linear refinement on bounded Bellman-Ford.
		target := (1 + eps) * exact
		t := 1
		for t <= union.N() {
			if graph.BoundedBellmanFord(union, p.u, t).Dist[p.v] <= target {
				break
			}
			t *= 2
		}
		lo, hi := t/2, t
		for lo+1 < hi {
			mid := (lo + hi) / 2
			if graph.BoundedBellmanFord(union, p.u, mid).Dist[p.v] <= target {
				hi = mid
			} else {
				lo = mid
			}
		}
		if hi > beta {
			beta = hi
		}
	}
	return beta, checked, nil
}

// VerifyHopset checks the two-sided hopset inequality on sampled pairs of
// virtual vertices: β-bounded distances over G'∪H never undercut the host
// distance d_G (every hopset edge is a genuine host path - the property all
// safety claims rely on) and reach (1+eps)·d_{G'} from above. Returns the
// first violated pair, or (-1, -1) if all pass, or materializeUnion's
// error.
func VerifyHopset(vg *VirtualGraph, hs *Hopset, eps float64, beta, pairs int, r *rand.Rand) (int, int, error) {
	m := vg.M()
	if m < 2 {
		return -1, -1, nil
	}
	gp, union, toVirt, err := materializeUnion(vg, hs)
	if err != nil {
		return -1, -1, err
	}
	members := vg.Members()
	for i := 0; i < pairs; i++ {
		u, v := members[r.Intn(m)], members[r.Intn(m)]
		if u == v {
			continue
		}
		ui, vi := toVirt[u], toVirt[v]
		exactVirt := graph.Dijkstra(gp, ui).Dist[vi]
		if exactVirt == graph.Infinity {
			continue
		}
		exactHost := graph.Dijkstra(vg.Host(), u).Dist[v]
		got := graph.BoundedBellmanFord(union, ui, beta).Dist[vi]
		if got < exactHost-1e-9 || got > (1+eps)*exactVirt+1e-9 {
			return u, v, nil
		}
	}
	return -1, -1, nil
}

// materializeUnion materialises G' and the union G'∪H on virtual indices,
// plus the host-id-to-virtual-index map of Materialize. The union drops a
// hopset edge parallel to a G' edge or to a hopset edge added before it.
func materializeUnion(vg *VirtualGraph, hs *Hopset) (gp, union *graph.CSR, toVirt []int, err error) {
	gp, toVirt, err = vg.Materialize()
	if err != nil {
		return nil, nil, nil, err
	}
	u := gp.Thaw()
	added := make(map[[2]int]bool)
	for _, e := range hs.Edges() {
		ui, wi := toVirt[e.From], toVirt[e.To]
		key := [2]int{min(ui, wi), max(ui, wi)}
		if ui < 0 || wi < 0 || added[key] || graph.TopoHasEdge(gp, ui, wi) {
			continue
		}
		if err := u.AddEdge(ui, wi, e.Weight); err != nil {
			return nil, nil, nil, fmt.Errorf("hopset: materialize union: %w", err)
		}
		added[key] = true
	}
	return gp, u.Build(), toVirt, nil
}
