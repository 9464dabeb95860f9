package obs

import (
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(3)
	c.Add(1)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 4 {
		t.Fatalf("counter=%d want 4", got)
	}
	if r.Counter("c") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge=%d want 7", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", 1)
	c.Add(1)
	g.Set(1)
	h.Record(1)
	r.SetHelp("x", "y")
	r.SetPhase(Phase{Name: "p", Total: 1})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil metrics reported nonzero values")
	}
	if p := r.Phase(); p.Total != 0 {
		t.Fatal("nil registry returned a phase")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatal(err)
	}
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
}

// The record path must not allocate: these run on the engine's per-round
// hot path and inside latency-critical lookup loops.
func TestRecordAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", 1)
	if n := testing.AllocsPerRun(1000, func() { c.Add(7) }); n != 0 {
		t.Errorf("Counter.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(42) }); n != 0 {
		t.Errorf("Gauge record path allocates %v/op", n)
	}
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() { h.Record(v); v = (v * 31) % (1 << 40) }); n != 0 {
		t.Errorf("Histogram.Record allocates %v/op", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilH.Record(5) }); n != 0 {
		t.Errorf("nil Histogram.Record allocates %v/op", n)
	}
}

// Concurrent writers on all three metric kinds; meaningful under -race
// (make race), and the totals check catches lost updates everywhere.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const (
		goroutines = 8
		perG       = 2000
	)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Counter("shared_counter")
			g := r.Gauge("shared_gauge")
			h := r.Histogram("shared_hist", 1)
			for j := 0; j < perG; j++ {
				c.Add(1)
				g.Set(int64(id*perG + j))
				h.Record(int64(j))
				if j%100 == 0 {
					_ = h.Snapshot()
					_ = r.Counter("shared_counter") // racing lookups
				}
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("shared_counter").Value(); got != goroutines*perG {
		t.Errorf("counter=%d want %d", got, goroutines*perG)
	}
	if got := r.Gauge("shared_gauge").Value(); got%perG != perG-1 {
		t.Errorf("gauge=%d, want some writer's last level", got)
	}
	if got := r.Histogram("shared_hist", 1).Count(); got != goroutines*perG {
		t.Errorf("histogram count=%d want %d", got, goroutines*perG)
	}
}

func TestPhase(t *testing.T) {
	r := NewRegistry()
	r.SetPhase(Phase{Name: "hopset", Done: 2, Total: 6})
	p := r.Phase()
	if p.Name != "hopset" || p.Done != 2 || p.Total != 6 {
		t.Fatalf("phase=%+v", p)
	}
}
