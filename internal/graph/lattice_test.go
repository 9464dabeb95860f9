package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// streamLattice is the edge stream lattice lays out in place, fed to a
// CSRBuilder: row-major cells, each cell's right edge then its down edge,
// then with wrap the row wraps by i and the column wraps by j, along
// dimensions longer than 2. It is the reference the layout must equal.
func streamLattice(rows, cols int, wrap bool, w WeightFunc, r *rand.Rand) *CSR {
	b := NewCSRBuilder(rows * cols)
	id := func(i, j int) int { return i*cols + j }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				b.add(id(i, j), id(i, j+1), w(r))
			}
			if i+1 < rows {
				b.add(id(i, j), id(i+1, j), w(r))
			}
		}
	}
	if wrap && cols > 2 {
		for i := 0; i < rows; i++ {
			b.add(id(i, 0), id(i, cols-1), w(r))
		}
	}
	if wrap && rows > 2 {
		for j := 0; j < cols; j++ {
			b.add(id(0, j), id(rows-1, j), w(r))
		}
	}
	return b.Build()
}

// checkLattice compares Grid or Torus against streamLattice on the same
// seed, digest for digest, and returns the layout.
func checkLattice(t *testing.T, rows, cols int, wrap bool, w WeightFunc) *CSR {
	t.Helper()
	gen := Grid
	if wrap {
		gen = Torus
	}
	got := gen(rows, cols, w, rand.New(rand.NewSource(1)))
	want := streamLattice(rows, cols, wrap, w, rand.New(rand.NewSource(1)))
	if g, s := csrDigest(got), csrDigest(want); g != s {
		t.Fatalf("%d×%d wrap=%v: layout digest %s, stream digest %s", rows, cols, wrap, g, s)
	}
	if err := csrValid(got); err != nil {
		t.Fatalf("%d×%d wrap=%v: %v", rows, cols, wrap, err)
	}
	return got
}

// TestLatticeMatchesStream pins the layout to the stream bit for bit on
// shapes on both sides of the wrap threshold (a dimension longer than 2),
// degenerate ones included, with unit and integer weights.
func TestLatticeMatchesStream(t *testing.T) {
	shapes := [][2]int{
		{1, 1}, {1, 2}, {2, 1}, {2, 2}, {2, 3}, {3, 2}, {3, 3}, {3, 5}, {5, 3}, {17, 4},
		{0, 4}, {4, 0}, {-2, -3},
	}
	weights := []struct {
		name string
		w    WeightFunc
	}{{"unit", UnitWeights}, {"int10", IntegerWeights(10)}}
	for _, sh := range shapes {
		for _, wrap := range []bool{false, true} {
			for _, wt := range weights {
				t.Run(fmt.Sprintf("%dx%d/wrap=%v/%s", sh[0], sh[1], wrap, wt.name), func(t *testing.T) {
					checkLattice(t, sh[0], sh[1], wrap, wt.w)
				})
			}
		}
	}
}

// TestLatticeFloatFallback draws ~80,000 distinct weights, past the class
// table's 65,536: the layout must switch to float64 weights mid-draw and
// still equal the stream, the ids drawn before the switch included.
func TestLatticeFloatFallback(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		if c := checkLattice(t, 200, 200, wrap, UniformWeights(1, 2)); c.WeightClasses() != 0 {
			t.Fatalf("wrap=%v: %d weight classes, want the float64 fallback", wrap, c.WeightClasses())
		}
	}
}

// generateGridAllocBudget is what GenerateCSR(FamilyGrid, 1<<16) may
// allocate: the CSR's 12 bytes per edge, 2 bytes per edge of weight ids
// and the 4(n+1) offsets, about 2.1 MB. Streaming the grid through a
// CSRBuilder allocated 4.2 MB.
const generateGridAllocBudget = 2_300_000

// TestGenerateCSRGridAllocBudget pins the lattice layout's allocation on
// the explore-grid64k bench workload's 256×256 grid.
func TestGenerateCSRGridAllocBudget(t *testing.T) {
	var ms runtime.MemStats
	measure := func() uint64 {
		r := rand.New(rand.NewSource(1))
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := GenerateCSR(FamilyGrid, 1<<16, r); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	measure() // first-use costs outside the layout
	if got := measure(); got > generateGridAllocBudget {
		t.Fatalf("GenerateCSR(grid, 1<<16) allocated %d bytes, budget %d", got, generateGridAllocBudget)
	}
}
