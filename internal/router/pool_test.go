package router

import (
	"testing"
)

// TestPooledPathsStayIntact pins the pool-recycling contract: the Path a
// delivery hands out must not be clobbered when its packet (and trace
// buffer) is reused by later sends.
func TestPooledPathsStayIntact(t *testing.T) {
	s, _ := buildScheme(t, 60, 2, 5)
	net := New(s.Scheme)
	defer net.Close()

	type sent struct {
		u, v int
		path []int
	}
	var first []sent
	for u := 0; u < 10; u++ {
		for v := 50; v < 60; v++ {
			d, err := net.Send(u, v)
			if err != nil {
				t.Fatalf("send %d->%d: %v", u, v, err)
			}
			first = append(first, sent{u, v, d.Path})
		}
	}
	// Churn the pool: every one of these sends reuses recycled packets.
	for i := 0; i < 500; i++ {
		if _, err := net.Send(i%60, (i*7+3)%60); err != nil {
			t.Fatalf("churn send: %v", err)
		}
	}
	for _, f := range first {
		want, _, err := s.Route(f.u, f.v)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(f.path) {
			t.Fatalf("%d->%d: held path %v, scheme walk %v", f.u, f.v, f.path, want)
		}
		for i := range want {
			if f.path[i] != want[i] {
				t.Fatalf("%d->%d: held path %v was clobbered (want %v)", f.u, f.v, f.path, want)
			}
		}
	}
}
