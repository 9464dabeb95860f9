package lowmemroute

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// servedScheme builds a k=2 scheme of an Erdős–Rényi network and serves it.
func servedScheme(t *testing.T, n int, seed int64, m *Metrics) (*Scheme, *PacketNetwork) {
	t.Helper()
	net, err := Generate(ErdosRenyi, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(net, Config{K: 2, Seed: seed, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	return s, s.Serve()
}

// TestConcurrentSends sends from eight goroutines at once (and crashes and
// recovers a node meanwhile); run under -race it checks Send shares nothing
// unsynchronised, and every delivery must be the clean route or, while the
// node is down, a detour around it or a clean failure.
func TestConcurrentSends(t *testing.T) {
	s, pn := servedScheme(t, 120, 4, nil)
	defer pn.Close()
	const n = 120
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				u, v := (w*31+i*7)%n, (w*17+i*13+5)%n
				p, err := pn.Send(u, v)
				if err != nil {
					continue // caught by the crash: a clean failure
				}
				if p.Nodes[0] != u || p.Nodes[len(p.Nodes)-1] != v {
					errs <- fmt.Errorf("send %d->%d delivered along %v", u, v, p.Nodes)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		pn.Crash(11)
		pn.Recover(11)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for u := 0; u < 20; u++ {
		p, err := pn.Send(u, n-1-u)
		want, werr := s.Route(u, n-1-u)
		if err != nil || werr != nil || p.Degraded || !slices.Equal(p.Nodes, want.Nodes) {
			t.Fatalf("after recovery %d->%d: %v (%v), clean %v (%v)", u, n-1-u, p, err, want.Nodes, werr)
		}
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	_, pn := servedScheme(t, 30, 5, nil)
	if _, err := pn.Send(0, 1); err != nil {
		t.Fatal(err)
	}
	pn.Close()
	if _, err := pn.Send(0, 1); err == nil {
		t.Fatal("send after close should fail")
	}
	pn.Close() // idempotent
}

func TestSendBoundsChecked(t *testing.T) {
	_, pn := servedScheme(t, 20, 6, nil)
	defer pn.Close()
	for _, c := range [][2]int{{-1, 3}, {0, 99}, {20, 0}, {0, -1}} {
		if _, err := pn.Send(c[0], c[1]); err == nil {
			t.Fatalf("send %d->%d: out-of-range endpoints should fail", c[0], c[1])
		}
	}
	pn.Crash(-1) // out-of-range crashes and queries are ignored
	pn.Recover(99)
	if pn.Down(-1) || pn.Down(99) {
		t.Fatal("out-of-range nodes reported down")
	}
}

// TestLatencyRecorded: a scheme built with metrics records each delivery's
// wall latency into the lookup histogram; a send refused before it starts
// (out of range) records nothing.
func TestLatencyRecorded(t *testing.T) {
	m := NewMetrics()
	_, pn := servedScheme(t, 40, 7, m)
	defer pn.Close()
	before := m.LookupLatency().Count
	if _, err := pn.Send(0, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := pn.Send(0, 99); err == nil {
		t.Fatal("out-of-range send should fail")
	}
	lat := m.LookupLatency()
	if lat.Count != before+1 || lat.Max <= 0 {
		t.Fatalf("after one delivery: %+v, count was %d", lat, before)
	}
}

// TestHeldPathsStayIntact: the path a delivery hands out belongs to the
// caller; later sends must not clobber it.
func TestHeldPathsStayIntact(t *testing.T) {
	s, pn := servedScheme(t, 60, 5, nil)
	defer pn.Close()
	type sent struct {
		u, v int
		path []int
	}
	var first []sent
	for u := 0; u < 10; u++ {
		for v := 50; v < 60; v++ {
			p, err := pn.Send(u, v)
			if err != nil {
				t.Fatalf("send %d->%d: %v", u, v, err)
			}
			first = append(first, sent{u, v, p.Nodes})
		}
	}
	for i := 0; i < 500; i++ {
		if _, err := pn.Send(i%60, (i*7+3)%60); err != nil {
			t.Fatalf("churn send: %v", err)
		}
	}
	for _, f := range first {
		want, err := s.Route(f.u, f.v)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(f.path, want.Nodes) {
			t.Fatalf("%d->%d: held path %v was clobbered (want %v)", f.u, f.v, f.path, want.Nodes)
		}
	}
}
