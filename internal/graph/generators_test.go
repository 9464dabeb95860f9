package graph

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// csrValid checks a CSR's internal consistency: monotone offsets covering
// 2M arcs, in-range neighbours, no self loops, positive finite weights, and
// symmetric adjacency (as many u→v arcs as v→u arcs, with equal weights).
func csrValid(c *CSR) error {
	n := c.N()
	if c.off[0] != 0 || int(c.off[n]) != 2*c.M() || len(c.to) != 2*c.M() {
		return fmt.Errorf("offsets [%d, %d] for %d arcs, M=%d", c.off[0], c.off[n], len(c.to), c.M())
	}
	type arc struct {
		u, v int32
		w    float64
	}
	count := map[arc]int{}
	for u := 0; u < n; u++ {
		if c.off[u+1] < c.off[u] {
			return fmt.Errorf("offsets decrease at vertex %d", u)
		}
		to, base := c.NeighborRange(u)
		for i, v := range to {
			w := c.ArcWeight(base + i)
			switch {
			case v < 0 || int(v) >= n:
				return fmt.Errorf("vertex %d has neighbour %d out of range", u, v)
			case int(v) == u:
				return fmt.Errorf("self loop at %d", u)
			case !(w > 0) || math.IsInf(w, 0):
				return fmt.Errorf("invalid weight %v on {%d,%d}", w, u, v)
			}
			count[arc{int32(u), v, w}]++
		}
	}
	for a, k := range count {
		if count[arc{a.v, a.u, a.w}] != k {
			return fmt.Errorf("asymmetric adjacency between %d and %d", a.u, a.v)
		}
	}
	return nil
}

func TestGeneratorsConnectedAndValid(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	tests := []struct {
		name string
		g    *CSR
		n    int
	}{
		{"erdos-renyi", ErdosRenyi(100, 0.05, IntegerWeights(10), r), 100},
		{"geometric", RandomGeometric(100, 0.2, r), 100},
		{"grid", Grid(8, 9, UnitWeights, r), 72},
		{"torus", Torus(6, 6, UnitWeights, r), 36},
		{"barabasi-albert", BarabasiAlbert(100, 3, UnitWeights, r), 100},
		{"path", Path(50, UnitWeights, r), 50},
		{"cycle", Cycle(50, UnitWeights, r), 50},
		{"star", Star(50, UnitWeights, r), 50},
		{"balanced-tree", BalancedTree(63, 2, UnitWeights, r), 63},
		{"caterpillar", Caterpillar(20, 60, UnitWeights, r), 80},
		{"random-tree", RandomTree(70, UnitWeights, r), 70},
		{"hypercube", Hypercube(6, UnitWeights, r), 64},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.g.N() != tt.n {
				t.Fatalf("N=%d want %d", tt.g.N(), tt.n)
			}
			if err := csrValid(tt.g); err != nil {
				t.Fatal(err)
			}
			if !Connected(tt.g) {
				t.Fatal("not connected")
			}
		})
	}
}

func TestTreesHaveExactlyNMinusOneEdges(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 3, 10, 100, 257} {
		for _, g := range []*CSR{
			RandomTree(n, UnitWeights, r),
			BalancedTree(n, 3, UnitWeights, r),
		} {
			if g.M() != n-1 {
				t.Fatalf("n=%d: M=%d want %d", n, g.M(), n-1)
			}
			if !Connected(g) {
				t.Fatalf("n=%d: tree not connected", n)
			}
		}
	}
}

func TestRandomTreeTinyCases(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	if g := RandomTree(0, UnitWeights, r); g.N() != 0 || g.M() != 0 {
		t.Fatalf("n=0: %d/%d", g.N(), g.M())
	}
	if g := RandomTree(1, UnitWeights, r); g.N() != 1 || g.M() != 0 {
		t.Fatalf("n=1: %d/%d", g.N(), g.M())
	}
	if g := RandomTree(2, UnitWeights, r); g.M() != 1 {
		t.Fatalf("n=2: M=%d", g.M())
	}
}

// Property: random trees over many seeds are always valid connected trees.
func TestRandomTreeProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%100) + 2
		g := RandomTree(n, UnitWeights, rand.New(rand.NewSource(seed)))
		return g.M() == n-1 && Connected(g) && csrValid(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Erdős–Rényi core streamed into a CSR always yields a valid
// connected topology (thanks to the backbone) for any p in [0,1].
func TestErdosRenyiProperty(t *testing.T) {
	f := func(seed int64, praw uint16, sz uint8) bool {
		n := int(sz%80) + 2
		p := float64(praw) / 65535
		c := ErdosRenyi(n, p, IntegerWeights(10), rand.New(rand.NewSource(seed)))
		return Connected(c) && csrValid(c) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateFamilies(t *testing.T) {
	for _, f := range goldenFamilies {
		t.Run(string(f), func(t *testing.T) {
			for _, n := range []int{1, 2, 5, 120, 1000} {
				c, err := GenerateCSR(f, n, rand.New(rand.NewSource(9)))
				if err != nil {
					t.Fatalf("GenerateCSR: %v", err)
				}
				if c.N() < n {
					t.Fatalf("n=%d: N=%d", n, c.N())
				}
				if err := csrValid(c); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if !Connected(c) {
					t.Fatalf("n=%d: not connected", n)
				}
			}
		})
	}
	if _, err := GenerateCSR(Family("nope"), 10, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("unknown family should error")
	}
}

// TestGenerateCSRNegativeN pins that every family rejects a negative
// vertex count with an error, neither panicking nor returning a graph.
func TestGenerateCSRNegativeN(t *testing.T) {
	for _, f := range goldenFamilies {
		if c, err := GenerateCSR(f, -1, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("%s: n=-1 gave %d vertices, want an error", f, c.N())
		}
	}
}

func TestHypercubeStructure(t *testing.T) {
	c, err := GenerateCSR(FamilyHypercube, 16, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 16 || c.M() != 32 {
		t.Fatalf("N=%d M=%d", c.N(), c.M())
	}
	for v := 0; v < 16; v++ {
		to, _ := c.NeighborRange(v)
		if len(to) != 4 {
			t.Fatalf("degree(%d)=%d want 4", v, len(to))
		}
		for _, u := range to {
			if bits.OnesCount(uint(v)^uint(u)) != 1 {
				t.Fatalf("arc %d-%d joins vertices more than one bit apart", v, u)
			}
		}
	}
	d, err := HopDiameter(c)
	if err != nil || d != 4 {
		t.Fatalf("diameter=%d err=%v want 4", d, err)
	}
}

func TestDeterminismUnderSeed(t *testing.T) {
	for _, f := range goldenFamilies {
		a, err := GenerateCSR(f, 300, rand.New(rand.NewSource(123)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := GenerateCSR(f, 300, rand.New(rand.NewSource(123)))
		if err != nil {
			t.Fatal(err)
		}
		csrEqual(t, a, b)
		c, err := GenerateCSR(f, 300, rand.New(rand.NewSource(124)))
		if err != nil {
			t.Fatal(err)
		}
		if csrDigest(a) == csrDigest(c) {
			t.Errorf("%s: seeds 123 and 124 generate the same topology", f)
		}
	}
}

func TestCaterpillarShape(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g := Caterpillar(10, 30, UnitWeights, r)
	// Every leg vertex has degree 1.
	for v := 10; v < 40; v++ {
		if g.Degree(v) != 1 {
			t.Fatalf("leg %d has degree %d", v, g.Degree(v))
		}
	}
}
