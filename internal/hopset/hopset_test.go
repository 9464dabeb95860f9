package hopset

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

func testGraph(t *testing.T, n int, seed int64) *graph.CSR {
	t.Helper()
	g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func sampleMembers(g graph.Topology, frac float64, r *rand.Rand) []int {
	var ms []int
	for v := 0; v < g.N(); v++ {
		if r.Float64() < frac {
			ms = append(ms, v)
		}
	}
	if len(ms) == 0 {
		ms = append(ms, 0)
	}
	return ms
}

func TestVirtualGraphBasics(t *testing.T) {
	g := testGraph(t, 50, 1)
	vg, err := NewVirtualGraph(g, []int{3, 1, 3, 7}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if vg.M() != 3 {
		t.Fatalf("M=%d want 3 (dedup)", vg.M())
	}
	if !vg.IsMember(7) || vg.IsMember(2) || vg.IsMember(-1) {
		t.Fatal("membership wrong")
	}
	if vg.B() != 5 {
		t.Fatalf("B=%d", vg.B())
	}
	ms := vg.Members()
	if ms[0] != 1 || ms[1] != 3 || ms[2] != 7 {
		t.Fatalf("Members=%v", ms)
	}
}

func TestVirtualGraphErrors(t *testing.T) {
	g := testGraph(t, 10, 1)
	if _, err := NewVirtualGraph(g, []int{0}, 0); err == nil {
		t.Fatal("B=0 should error")
	}
	if _, err := NewVirtualGraph(g, []int{99}, 3); err == nil {
		t.Fatal("out-of-range member should error")
	}
}

func TestMaterializeMatchesBoundedDistances(t *testing.T) {
	g := testGraph(t, 60, 2)
	r := rand.New(rand.NewSource(3))
	vg, err := NewVirtualGraph(g, sampleMembers(g, 0.3, r), 3)
	if err != nil {
		t.Fatal(err)
	}
	gp, toVirt, err := vg.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if gp.N() != vg.M() {
		t.Fatalf("materialized N=%d want %d", gp.N(), vg.M())
	}
	for _, u := range vg.Members() {
		bb := graph.BoundedBellmanFord(g, u, 3)
		for _, w := range vg.Members() {
			if u >= w {
				continue
			}
			got, ok := graph.TopoEdgeWeight(gp, toVirt[u], toVirt[w])
			if bb.Dist[w] == graph.Infinity {
				if ok {
					t.Fatalf("edge {%d,%d} should not exist", u, w)
				}
				continue
			}
			if !ok || got != bb.Dist[w] {
				t.Fatalf("edge {%d,%d}: got %v,%v want %v", u, w, got, ok, bb.Dist[w])
			}
		}
	}
}

func TestExactDistancesAreMetricOverVirtual(t *testing.T) {
	g := testGraph(t, 50, 4)
	r := rand.New(rand.NewSource(5))
	vg, err := NewVirtualGraph(g, sampleMembers(g, 0.4, r), 4)
	if err != nil {
		t.Fatal(err)
	}
	ms := vg.Members()
	dists, err := vg.ExactDistances(ms[:2])
	if err != nil {
		t.Fatal(err)
	}
	for s, dist := range dists {
		if dist[s] != 0 {
			t.Fatalf("d(%d,%d)=%v", s, s, dist[s])
		}
		// Virtual distances dominate host distances.
		exact := graph.Dijkstra(g, s)
		for _, w := range ms {
			if dist[w] != graph.Infinity && dist[w] < exact.Dist[w] {
				t.Fatalf("d_G'(%d,%d)=%v below d_G=%v", s, w, dist[w], exact.Dist[w])
			}
		}
	}
}

func TestExploreSingleSourceMatchesBoundedBF(t *testing.T) {
	g := testGraph(t, 80, 6)
	sim := congest.NewTopo(g)
	res, err := NewExplorer(sim).Explore([]Source{{Root: 0, At: 0, Dist: 0}}, ExploreOptions{Hops: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref := graph.BoundedBellmanFord(g, 0, 4)
	for v := 0; v < g.N(); v++ {
		got := res.Dist(v, 0)
		// The Pareto-merged exploration may find shorter-than-B-bounded
		// genuine paths but never below the true distance nor above the
		// strict B-bounded distance.
		exact := graph.Dijkstra(g, 0).Dist[v]
		if got > ref.Dist[v] {
			t.Fatalf("v=%d: explore %v above bounded BF %v", v, got, ref.Dist[v])
		}
		if got != graph.Infinity && got < exact {
			t.Fatalf("v=%d: explore %v below exact %v", v, got, exact)
		}
	}
}

func TestExploreUnboundedMatchesDijkstra(t *testing.T) {
	g := testGraph(t, 80, 7)
	sim := congest.NewTopo(g)
	res, err := NewExplorer(sim).Explore([]Source{{Root: 5, At: 5, Dist: 0}}, ExploreOptions{Hops: g.N()})
	if err != nil {
		t.Fatal(err)
	}
	exact := graph.Dijkstra(g, 5)
	for v := 0; v < g.N(); v++ {
		if got := res.Dist(v, 5); got != exact.Dist[v] {
			t.Fatalf("v=%d: %v want %v", v, got, exact.Dist[v])
		}
	}
}

func TestExploreParentChainsAreConsistent(t *testing.T) {
	g := testGraph(t, 60, 8)
	sim := congest.NewTopo(g)
	res, err := NewExplorer(sim).Explore([]Source{{Root: 3, At: 3, Dist: 0}}, ExploreOptions{Hops: g.N()})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		path := res.PathToSeed(v, 3)
		if path == nil {
			continue
		}
		if path[len(path)-1] != 3 {
			t.Fatalf("path from %d does not end at seed: %v", v, path)
		}
		var w float64
		for i := 1; i < len(path); i++ {
			ew, ok := graph.TopoEdgeWeight(g, path[i-1], path[i])
			if !ok {
				t.Fatalf("path hop {%d,%d} not an edge", path[i-1], path[i])
			}
			w += ew
		}
		if got := res.Dist(v, 3); got != w {
			t.Fatalf("v=%d: recorded dist %v != path weight %v", v, got, w)
		}
	}
}

func TestExploreMultiRootIndependence(t *testing.T) {
	g := testGraph(t, 60, 9)
	sim := congest.NewTopo(g)
	srcs := []Source{
		{Root: 0, At: 0, Dist: 0},
		{Root: 10, At: 10, Dist: 0},
		{Root: 20, At: 20, Dist: 0},
	}
	res, err := NewExplorer(sim).Explore(srcs, ExploreOptions{Hops: g.N()})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range srcs {
		exact := graph.Dijkstra(g, s.Root)
		for v := 0; v < g.N(); v++ {
			if got := res.Dist(v, s.Root); got != exact.Dist[v] {
				t.Fatalf("root %d, v=%d: %v want %v", s.Root, v, got, exact.Dist[v])
			}
		}
	}
}

func TestExploreLimitStopsForwardingAndStorage(t *testing.T) {
	// On a path, limit to distance < 3: vertices with distance < 3 join
	// and forward; the vertex at distance 3 receives the message but drops
	// it (no storage, no forwarding - the TZ cluster boundary), so nothing
	// beyond distance 2 holds an entry.
	g := graph.Path(10, graph.UnitWeights, rand.New(rand.NewSource(1)))
	sim := congest.NewTopo(g)
	limit := func(v, root int, d float64) bool { return d < 3 }
	res, err := NewExplorer(sim).Explore([]Source{{Root: 0, At: 0, Dist: 0}}, ExploreOptions{Hops: 100, Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 10; v++ {
		got := res.Dist(v, 0)
		if v <= 2 && got != float64(v) {
			t.Fatalf("v=%d: %v want %d", v, got, v)
		}
		if v > 2 && got != graph.Infinity {
			t.Fatalf("v=%d should hold no entry, got %v", v, got)
		}
	}
}

func TestExploreChargesEntryMemory(t *testing.T) {
	g := graph.Path(5, graph.UnitWeights, rand.New(rand.NewSource(1)))
	sim := congest.NewTopo(g)
	if _, err := NewExplorer(sim).Explore([]Source{{Root: 0, At: 0, Dist: 0}}, ExploreOptions{Hops: 10}); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if sim.Mem(v).Peak() < 3 {
			t.Fatalf("vertex %d peak %d, want >= 3 (one entry)", v, sim.Mem(v).Peak())
		}
	}
}

func TestExploreErrors(t *testing.T) {
	g := testGraph(t, 10, 1)
	sim := congest.NewTopo(g)
	if _, err := NewExplorer(sim).Explore(nil, ExploreOptions{Hops: 0}); err == nil {
		t.Fatal("hops 0 should error")
	}
	if _, err := NewExplorer(sim).Explore([]Source{{Root: 0, At: 99, Dist: 0}}, ExploreOptions{Hops: 1}); err == nil {
		t.Fatal("seed out of range should error")
	}
}

func TestDistToSet(t *testing.T) {
	g := testGraph(t, 70, 11)
	sim := congest.NewTopo(g)
	seeds := []int{0, 33, 66}
	dist, parent, origin, err := DistToSet(sim, seeds, g.N())
	if err != nil {
		t.Fatal(err)
	}
	want := graph.BoundedBellmanFordMulti(g, seeds, nil, g.N())
	for v := 0; v < g.N(); v++ {
		if dist[v] != want.Dist[v] {
			t.Fatalf("v=%d: %v want %v", v, dist[v], want.Dist[v])
		}
	}
	for _, s := range seeds {
		if dist[s] != 0 || parent[s] != graph.NoVertex || origin[s] != s {
			t.Fatalf("seed %d: dist=%v parent=%d origin=%d", s, dist[s], parent[s], origin[s])
		}
	}
	// Origins must be actual seeds and consistent with distances.
	for v := 0; v < g.N(); v++ {
		o := origin[v]
		if o != 0 && o != 33 && o != 66 {
			t.Fatalf("v=%d origin %d not a seed", v, o)
		}
		if d := graph.Dijkstra(g, o).Dist[v]; dist[v] < d {
			t.Fatalf("v=%d: dist %v below d(origin) %v", v, dist[v], d)
		}
	}
}

func TestDistToSetEmpty(t *testing.T) {
	g := testGraph(t, 10, 1)
	dist, _, _, err := DistToSet(congest.NewTopo(g), nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dist {
		if d != graph.Infinity {
			t.Fatal("empty set should leave everything at Infinity")
		}
	}
}

func buildTestHopset(t *testing.T, n int, b int, seed int64) (*graph.CSR, *VirtualGraph, *Hopset, *congest.Simulator) {
	t.Helper()
	g := testGraph(t, n, seed)
	r := rand.New(rand.NewSource(seed + 1))
	vg, err := NewVirtualGraph(g, sampleMembers(g, 0.25, r), b)
	if err != nil {
		t.Fatal(err)
	}
	sim := congest.NewTopo(g)
	hs, err := Build(NewExplorer(sim), vg, Options{Kappa: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g, vg, hs, sim
}

func TestHopsetEdgesAreValidDistances(t *testing.T) {
	g, _, hs, _ := buildTestHopset(t, 100, 4, 13)
	for _, e := range hs.Edges() {
		exact := graph.Dijkstra(g, e.From).Dist[e.To]
		if e.Weight < exact {
			t.Fatalf("hopset edge (%d,%d) weight %v below exact %v", e.From, e.To, e.Weight, exact)
		}
	}
}

// TestHopsetPathRecovery checks the recovery walk of every edge (x, w)
// from both ends: each walk is a host path whose weights sum to the edge's
// weight, and when only x stores the edge, the walk from w is the reverse of
// the walk from x.
func TestHopsetPathRecovery(t *testing.T) {
	g, _, hs, _ := buildTestHopset(t, 100, 4, 14)
	walk := func(x, w int) ([]int, float64) {
		path, ok := hs.Walk(nil, x, w)
		if !ok || len(path) < 2 {
			t.Fatalf("edge (%d,%d) missing recovery path", x, w)
		}
		if path[0] != x || path[len(path)-1] != w {
			t.Fatalf("edge (%d,%d) path endpoints %v", x, w, path)
		}
		var sum float64
		for i := 1; i < len(path); i++ {
			ew, ok := graph.TopoEdgeWeight(g, path[i-1], path[i])
			if !ok {
				t.Fatalf("edge (%d,%d): recovery hop {%d,%d} not a graph edge", x, w, path[i-1], path[i])
			}
			sum += ew
		}
		return path, sum
	}
	weight := make(map[[2]int]float64)
	for _, e := range hs.Edges() {
		weight[[2]int{e.From, e.To}] = e.Weight
	}
	reversed := 0
	for _, e := range hs.Edges() {
		x, w := e.From, e.To
		fwd, sum := walk(x, w)
		if sum != e.Weight {
			t.Fatalf("edge (%d,%d): path weight %v != edge weight %v", x, w, sum, e.Weight)
		}
		back, sum := walk(w, x)
		if own, ok := weight[[2]int{w, x}]; ok {
			// w stores its own edge to x, and the walk from w is that edge's.
			if sum != own {
				t.Fatalf("edge (%d,%d): path weight %v != edge weight %v", w, x, sum, own)
			}
			continue
		}
		slices.Reverse(fwd)
		if !slices.Equal(back, fwd) {
			t.Fatalf("edge (%d,%d): walk back %v is not the reverse walk %v", x, w, back, fwd)
		}
		if math.Abs(sum-e.Weight) > 1e-9*math.Max(1, e.Weight) {
			t.Fatalf("edge (%d,%d): reversed walk weight %v, edge weight %v", x, w, sum, e.Weight)
		}
		reversed++
	}
	if reversed == 0 {
		t.Fatal("no edge was walked from its head")
	}
	if path, ok := hs.Walk([]int{7}, 0, 0); ok || !slices.Equal(path, []int{7}) {
		t.Fatalf("Walk of a missing edge = %v, %v; want the buffer unchanged and false", path, ok)
	}
}

// TestClusterTreesRejectsUnsortedRoots pins the extractor's contract: roots
// are found by binary search, so a list that is not strictly ascending is an
// error rather than a silently skipped record.
func TestClusterTreesRejectsUnsortedRoots(t *testing.T) {
	recs := [][]RootEntry{
		{{Root: 0, Entry: Entry{Parent: graph.NoVertex}}},
		{{Root: 0, Entry: Entry{Dist: 1, Parent: 0}}, {Root: 1, Entry: Entry{Parent: graph.NoVertex}}},
	}
	member := func(v int, en *RootEntry) (int, int, bool) { return en.Root, en.Parent, true }
	trees, err := ClusterTrees([]int{0, 1}, recs, member)
	if err != nil || len(trees) != 2 || trees[0].Size() != 2 || trees[1].Size() != 1 {
		t.Fatalf("ascending roots: trees %v, err %v", trees, err)
	}
	for _, roots := range [][]int{{1, 0}, {0, 0}} {
		if _, err := ClusterTrees(roots, recs, member); err == nil || !strings.Contains(err.Error(), "ascending") {
			t.Fatalf("roots %v: err %v, want the ascending-roots error", roots, err)
		}
	}
}

// runBF runs one unlimited kernel from seeds on a fresh Explorer over sim
// and returns each vertex's estimate of its distance to them (Infinity
// where it has none) and the iterations run.
func runBF(t *testing.T, sim *congest.Simulator, vg *VirtualGraph, hs *Hopset, seeds []Source) ([]float64, int) {
	t.Helper()
	bf := NewLimitedBF(NewExplorer(sim), vg, hs)
	iters, err := bf.Run(seeds, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	dist := make([]float64, sim.N())
	for v := range dist {
		dist[v] = graph.Infinity
		if e := bf.Get(v, -1); e != nil {
			dist[v] = e.Dist
		}
	}
	return dist, iters
}

func TestHopsetAcceleratesBF(t *testing.T) {
	// With the hopset, set-source BF over G'∪H must converge in far fewer
	// iterations than the virtual graph's unweighted diameter, and to
	// estimates sandwiched between d_G and d_{G'}.
	g, vg, hs, sim := buildTestHopset(t, 120, 3, 15)
	seeds := []Source{{Root: -1, At: vg.Members()[0], Dist: 0}}
	dist, iters := runBF(t, sim, vg, hs, seeds)
	exact, err := vg.ExactDistances([]int{vg.Members()[0]})
	if err != nil {
		t.Fatal(err)
	}
	exactVirt := exact[vg.Members()[0]]
	exactHost := graph.Dijkstra(g, vg.Members()[0])
	for _, w := range vg.Members() {
		if dist[w] == graph.Infinity {
			t.Fatalf("virtual vertex %d unreached", w)
		}
		if dist[w] < exactHost.Dist[w] {
			t.Fatalf("w=%d: estimate %v below host distance %v", w, dist[w], exactHost.Dist[w])
		}
		if dist[w] > exactVirt[w] {
			t.Fatalf("w=%d: estimate %v above virtual distance %v", w, dist[w], exactVirt[w])
		}
	}
	if iters > vg.M() {
		t.Fatalf("BF took %d iterations on %d virtual vertices", iters, vg.M())
	}
}

// TestBellmanFordWarmScratchMatchesFresh: a kernel already run from one
// seed set returns, for a second seed set, exactly what a fresh kernel
// returns, at the same round, message and word cost. Core runs one kernel
// for every approximate-pivot and approximate-cluster level.
func TestBellmanFordWarmScratchMatchesFresh(t *testing.T) {
	_, vg, hs, sim := buildTestHopset(t, 120, 3, 17)
	m := vg.Members()
	first := []Source{{Root: -1, At: m[0], Dist: 0}}
	second := []Source{{Root: -1, At: m[len(m)/2], Dist: 0}, {Root: -1, At: m[len(m)-1], Dist: 0}}
	type run struct {
		est                     [][]Estimate
		iters                   int
		rounds, messages, words int64
	}
	bf := func(seeds []Source, l *LimitedBF) run {
		r0, m0, w0 := sim.Rounds(), sim.Messages(), sim.Words()
		iters, err := l.Run(seeds, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		out := run{iters: iters, rounds: sim.Rounds() - r0, messages: sim.Messages() - m0, words: sim.Words() - w0}
		for _, es := range l.Estimates() {
			out.est = append(out.est, slices.Clone(es))
		}
		return out
	}
	fresh := bf(second, NewLimitedBF(NewExplorer(sim), vg, hs))
	warm := NewLimitedBF(NewExplorer(sim), vg, hs)
	bf(first, warm)
	got := bf(second, warm)
	if !reflect.DeepEqual(got, fresh) {
		t.Fatalf("warm kernel: %d iterations, %d rounds, %d messages, %d words; fresh: %d, %d, %d, %d (or the estimates differ)",
			got.iters, got.rounds, got.messages, got.words,
			fresh.iters, fresh.rounds, fresh.messages, fresh.words)
	}
}

// TestLimitedBFOriginsAreSeeds: with several seeds sharing one root (the
// approximate pivots' use), every estimate's origin is one of the seeds,
// and the estimate is never below the host distance from that origin. The
// instance is a grid with B = 3, so the hopset's H steps relax estimates,
// and origins resolve through their hopset edges' tails.
func TestLimitedBFOriginsAreSeeds(t *testing.T) {
	g, err := graph.GenerateCSR(graph.FamilyGrid, 256, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	vg, err := NewVirtualGraph(g, sampleMembers(g, 0.25, rand.New(rand.NewSource(2))), 3)
	if err != nil {
		t.Fatal(err)
	}
	sim := congest.NewTopo(g)
	hs, err := Build(NewExplorer(sim), vg, Options{Kappa: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := vg.Members()
	var seeds []Source
	isSeed := map[int]bool{}
	for _, v := range []int{m[0], m[len(m)/2], m[len(m)-1]} {
		seeds = append(seeds, Source{Root: -1, At: v})
		isSeed[v] = true
	}
	bf := NewLimitedBF(NewExplorer(sim), vg, hs)
	if _, err := bf.Run(seeds, nil, 0); err != nil {
		t.Fatal(err)
	}
	viaHopset := 0
	for v := 0; v < g.N(); v++ {
		e := bf.Get(v, -1)
		if e == nil {
			continue
		}
		if !isSeed[e.Origin] {
			t.Fatalf("v=%d: origin %d is not a seed", v, e.Origin)
		}
		if d := graph.Dijkstra(g, e.Origin).Dist[v]; e.Dist < d {
			t.Fatalf("v=%d: estimate %v below the host distance %v from its origin %d", v, e.Dist, d, e.Origin)
		}
		if e.Via != graph.NoVertex {
			viaHopset++
		}
	}
	if viaHopset == 0 {
		t.Fatal("no estimate came over a hopset edge; the instance does not exercise H steps")
	}
}

func TestHopsetBFEmptySeeds(t *testing.T) {
	_, vg, hs, sim := buildTestHopset(t, 50, 3, 16)
	dist, iters := runBF(t, sim, vg, hs, nil)
	for _, d := range dist {
		if d != graph.Infinity {
			t.Fatal("no seeds should mean no estimates")
		}
	}
	if iters != 0 {
		t.Fatalf("no seeds ran %d iterations", iters)
	}
}

func TestHopsetArboricityShrinksWithKappa(t *testing.T) {
	g := testGraph(t, 200, 17)
	r := rand.New(rand.NewSource(18))
	members := sampleMembers(g, 0.5, r)
	outDeg := make(map[int]int)
	for _, kappa := range []int{2, 4} {
		vg, err := NewVirtualGraph(g, members, 3)
		if err != nil {
			t.Fatal(err)
		}
		sim := congest.NewTopo(g)
		hs, err := Build(NewExplorer(sim), vg, Options{Kappa: kappa, Seed: 19})
		if err != nil {
			t.Fatal(err)
		}
		outDeg[kappa] = hs.MaxOutDegree()
	}
	// More levels -> smaller bunches. Allow equality (randomness) but not
	// an inversion by more than a factor of two.
	if outDeg[4] > 2*outDeg[2] {
		t.Fatalf("arboricity did not shrink with kappa: k2=%d k4=%d", outDeg[2], outDeg[4])
	}
}

func TestHopsetEmptyVirtualGraph(t *testing.T) {
	g := testGraph(t, 20, 20)
	vg, err := NewVirtualGraph(g, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := Build(NewExplorer(congest.NewTopo(g)), vg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hs.Size() != 0 {
		t.Fatal("empty virtual graph should give empty hopset")
	}
}

// Property: hopset BF estimates are always sandwiched between host and
// virtual distances, for random graphs and member sets.
func TestHopsetBFSandwichProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%60) + 20
		r := rand.New(rand.NewSource(seed))
		gen, err := graph.GenerateCSR(graph.FamilyErdosRenyi, n, r)
		if err != nil {
			return false
		}
		g := gen
		members := sampleMembers(g, 0.3, r)
		vg, err := NewVirtualGraph(g, members, 3)
		if err != nil {
			return false
		}
		sim := congest.NewTopo(g)
		hs, err := Build(NewExplorer(sim), vg, Options{Kappa: 2, Seed: seed})
		if err != nil {
			return false
		}
		src := members[0]
		dist, _ := runBF(t, sim, vg, hs, []Source{{Root: -1, At: src, Dist: 0}})
		exact, err := vg.ExactDistances([]int{src})
		if err != nil {
			return false
		}
		exactVirt := exact[src]
		exactHost := graph.Dijkstra(g, src)
		for _, w := range members {
			if dist[w] < exactHost.Dist[w] || dist[w] > exactVirt[w] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestExploreWorkerCountInvariance runs a four-root exploration serially and
// on four shards. The graph is large enough for the engine to fork rounds
// (from 1024 active vertices or dirty destinations on), so the sharded run
// executes the explorer's handlers on the worker pool; distances, meter
// readings and rounds must equal the serial run's.
func TestExploreWorkerCountInvariance(t *testing.T) {
	const n, hops = 1500, 12
	g := testGraph(t, n, 7)
	roots := []int{0, 17, 42, 80}
	srcs := make([]Source, 0, len(roots))
	for _, r := range roots {
		srcs = append(srcs, Source{Root: r, At: r})
	}
	run := func(workers int) []int64 {
		sim := congest.NewTopo(g, congest.WithWorkers(workers))
		res, err := NewExplorer(sim).Explore(srcs, ExploreOptions{Hops: hops})
		if err != nil {
			t.Fatal(err)
		}
		if steps, deliveries := sim.ParallelRounds(); workers > 1 && (steps == 0 || deliveries == 0) {
			t.Fatalf("workers=%d: %d parallel step rounds, %d parallel delivery rounds; it never forked",
				workers, steps, deliveries)
		}
		out := []int64{sim.Rounds()}
		for v := 0; v < n; v++ {
			for _, r := range roots {
				out = append(out, int64(math.Float64bits(res.Dist(v, r))))
			}
			out = append(out, sim.Mem(v).Current(), sim.Mem(v).Peak())
		}
		return out
	}
	if want, got := run(1), run(4); !reflect.DeepEqual(got, want) {
		t.Fatal("exploration on four shards diverged from the serial run")
	}
}
