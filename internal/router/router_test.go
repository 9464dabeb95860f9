package router

import (
	"math/rand"
	"sync"
	"testing"

	"lowmemroute/internal/graph"
	"lowmemroute/internal/tz"
)

func buildScheme(t *testing.T, n int, k int, seed int64) (*tz.Scheme, *graph.CSR) {
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

func TestPacketsFollowSchemeRoutes(t *testing.T) {
	s, g := buildScheme(t, 100, 2, 1)
	net := New(s.Scheme)
	defer net.Close()
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		d, err := net.Send(u, v)
		if err != nil {
			t.Fatalf("send %d->%d: %v", u, v, err)
		}
		wantPath, _, err := s.Route(u, v)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Path) != len(wantPath) {
			t.Fatalf("send %d->%d path %v, scheme walk %v", u, v, d.Path, wantPath)
		}
		for i := range wantPath {
			if d.Path[i] != wantPath[i] {
				t.Fatalf("send %d->%d path diverges: %v vs %v", u, v, d.Path, wantPath)
			}
		}
	}
}

func TestSelfDelivery(t *testing.T) {
	s, _ := buildScheme(t, 30, 2, 3)
	net := New(s.Scheme)
	defer net.Close()
	d, err := net.Send(7, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Path) != 1 || d.Path[0] != 7 {
		t.Fatalf("self delivery path %v", d.Path)
	}
}

func TestConcurrentSends(t *testing.T) {
	s, g := buildScheme(t, 120, 2, 4)
	net := New(s.Scheme)
	defer net.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 200)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				u, v := r.Intn(g.N()), r.Intn(g.N())
				d, err := net.Send(u, v)
				if err != nil {
					errs <- err
					return
				}
				if d.Path[len(d.Path)-1] != v {
					errs <- errWrongDst
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errWrongDst = &wrongDst{}

type wrongDst struct{}

func (*wrongDst) Error() string { return "packet delivered to wrong destination" }

func TestSendAfterCloseFails(t *testing.T) {
	s, _ := buildScheme(t, 30, 2, 5)
	net := New(s.Scheme)
	net.Close()
	if _, err := net.Send(0, 1); err == nil {
		t.Fatal("send after close should fail")
	}
	net.Close() // idempotent
}

func TestSendBoundsChecked(t *testing.T) {
	s, _ := buildScheme(t, 20, 2, 6)
	net := New(s.Scheme)
	defer net.Close()
	if _, err := net.Send(-1, 3); err == nil {
		t.Fatal("negative src should fail")
	}
	if _, err := net.Send(0, 99); err == nil {
		t.Fatal("out-of-range dst should fail")
	}
}

func TestLatencyRecorded(t *testing.T) {
	s, _ := buildScheme(t, 40, 2, 7)
	net := New(s.Scheme)
	defer net.Close()
	d, err := net.Send(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if d.Latency <= 0 {
		t.Fatalf("latency %v", d.Latency)
	}
}
