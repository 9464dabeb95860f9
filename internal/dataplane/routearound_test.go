package dataplane

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"lowmemroute/internal/graph"
	"lowmemroute/internal/tz"
)

// buildTZ builds the Thorup–Zwick scheme of an Erdős–Rényi graph, the
// fixture of the crash-detour tests.
func buildTZ(t *testing.T, n, k int, seed int64) (*tz.Scheme, *graph.CSR) {
	t.Helper()
	g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := tz.Build(g, tz.Options{K: k, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return s, g
}

// TestPacketsFollowSchemeRoutes: with nothing down, RouteAround walks
// exactly the clean route, undegraded.
func TestPacketsFollowSchemeRoutes(t *testing.T) {
	s, g := buildTZ(t, 100, 2, 1)
	tab := Compile(s.Scheme)
	down := make([]atomic.Bool, tab.N())
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		path, reroutes, err := tab.RouteAround(u, v, down, nil)
		if err != nil {
			t.Fatalf("send %d->%d: %v", u, v, err)
		}
		want, _, err := tab.Route(u, v)
		if err != nil {
			t.Fatal(err)
		}
		if reroutes != 0 || !slices.Equal(path, want) {
			t.Fatalf("send %d->%d path %v (%d reroutes), clean walk %v", u, v, path, reroutes, want)
		}
	}
}

func TestSelfDelivery(t *testing.T) {
	s, _ := buildTZ(t, 30, 2, 3)
	tab := Compile(s.Scheme)
	path, _, err := tab.RouteAround(7, 7, make([]atomic.Bool, tab.N()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 1 || path[0] != 7 {
		t.Fatalf("self delivery path %v", path)
	}
}

// crashTarget picks an intermediate vertex of some clean route, so that
// crashing it forces at least one reroute. Returns the vertex and a (src,
// dst) pair whose clean path runs through it.
func crashTarget(t *testing.T, tab *Table, seed int64) (victim, src, dst int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 500; trial++ {
		u, v := r.Intn(tab.N()), r.Intn(tab.N())
		if u == v {
			continue
		}
		path, _, err := tab.Route(u, v)
		if err != nil {
			t.Fatalf("clean route %d->%d: %v", u, v, err)
		}
		if len(path) >= 3 {
			return path[len(path)/2], u, v
		}
	}
	t.Fatal("no route with an intermediate vertex found")
	return 0, 0, 0
}

func TestCrashedNextHopReroutes(t *testing.T) {
	s, g := buildTZ(t, 100, 3, 11)
	tab := Compile(s.Scheme)
	down := make([]atomic.Bool, tab.N())

	// Route a batch of random pairs clean, crash the most-used intermediate
	// vertex, and resend exactly the pairs whose clean routes traversed it:
	// each of those packets now meets the crash at some hop.
	r := rand.New(rand.NewSource(12))
	type pair struct{ u, v int }
	through := map[int][]pair{}
	count := map[int]int{}
	for trial := 0; trial < 400; trial++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		if u == v {
			continue
		}
		path, _, err := tab.RouteAround(u, v, down, nil)
		if err != nil {
			t.Fatalf("clean send %d->%d: %v", u, v, err)
		}
		for _, x := range path[1 : len(path)-1] {
			through[x] = append(through[x], pair{u, v})
			count[x]++
		}
	}
	// A crashed high-level pivot can be unavoidable (every fallback tree is
	// rooted at it), so pick the busiest transit vertex that is not a pivot
	// of any level >= 1 label entry.
	pivot := map[int]bool{}
	for _, lab := range s.Scheme.Labels {
		for _, e := range lab.Entries {
			if e.Level >= 1 {
				pivot[e.Root] = true
			}
		}
	}
	victim, best := -1, 0
	for x, c := range count {
		if c > best && !pivot[x] {
			victim, best = x, c
		}
	}
	if victim < 0 {
		t.Fatal("no non-pivot intermediate vertex found")
	}
	down[victim].Store(true)

	degraded, failed := 0, 0
	for _, pr := range through[victim] {
		path, reroutes, err := tab.RouteAround(pr.u, pr.v, down, nil)
		if err != nil {
			failed++ // no fallback tree from some hop: a clean failure
			continue
		}
		if last := path[len(path)-1]; last != pr.v {
			t.Fatalf("send %d->%d ended at %d", pr.u, pr.v, last)
		}
		if slices.Contains(path, victim) {
			t.Fatalf("send %d->%d routed through crashed %d: %v", pr.u, pr.v, victim, path)
		}
		if reroutes > 0 {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatalf("none of the %d pairs through crashed %d was rerouted (%d failed)",
			len(through[victim]), victim, failed)
	}
}

func TestCrashedDestinationFails(t *testing.T) {
	s, _ := buildTZ(t, 60, 2, 21)
	tab := Compile(s.Scheme)
	down := make([]atomic.Bool, tab.N())
	down[17].Store(true)
	if _, _, err := tab.RouteAround(3, 17, down, nil); err == nil {
		t.Fatal("send to crashed destination should fail")
	}
}

func TestCrashedSourceFails(t *testing.T) {
	s, _ := buildTZ(t, 60, 2, 22)
	tab := Compile(s.Scheme)
	down := make([]atomic.Bool, tab.N())
	down[3].Store(true)
	if _, _, err := tab.RouteAround(3, 17, down, nil); err == nil {
		t.Fatal("send from crashed source should fail")
	}
}

func TestRecoverRestoresCleanRoutes(t *testing.T) {
	s, _ := buildTZ(t, 100, 3, 23)
	tab := Compile(s.Scheme)
	down := make([]atomic.Bool, tab.N())
	victim, src, dst := crashTarget(t, tab, 24)
	clean, _, err := tab.RouteAround(src, dst, down, nil)
	if err != nil {
		t.Fatal(err)
	}
	down[victim].Store(true)
	if path, reroutes, err := tab.RouteAround(src, dst, down, nil); err == nil && (reroutes == 0 || slices.Contains(path, victim)) {
		t.Fatalf("walk through crashed %d: %v, %d reroutes", victim, path, reroutes)
	}
	down[victim].Store(false)
	path, reroutes, err := tab.RouteAround(src, dst, down, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reroutes != 0 {
		t.Fatal("recovered network should not degrade")
	}
	if !slices.Equal(path, clean) {
		t.Fatalf("recovered path %v differs from clean %v", path, clean)
	}
}

// TestCrashRecoverConcurrentWithSends flips a transit vertex down and up
// while walks read the mask: under -race this is the detector for an
// unsynchronised mask, and every walk must still end at its destination or
// fail cleanly.
func TestCrashRecoverConcurrentWithSends(t *testing.T) {
	s, g := buildTZ(t, 80, 3, 25)
	tab := Compile(s.Scheme)
	down := make([]atomic.Bool, tab.N())
	victim, _, _ := crashTarget(t, tab, 26)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			down[victim].Store(true)
			down[victim].Store(false)
		}
	}()
	r := rand.New(rand.NewSource(27))
	for i := 0; i < 100; i++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		if u == victim || v == victim {
			continue
		}
		path, _, err := tab.RouteAround(u, v, down, nil)
		if err != nil {
			continue // packet caught mid-crash: a clean failure
		}
		if last := path[len(path)-1]; last != v {
			t.Fatalf("send %d->%d ended at %d", u, v, last)
		}
	}
	<-done
}
