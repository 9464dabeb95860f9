package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
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
// seed, digest for digest, and returns the layout. The layout must leave
// no goroutine running behind it.
func checkLattice(t *testing.T, rows, cols int, wrap bool, w WeightFunc) *CSR {
	t.Helper()
	gen := Grid
	if wrap {
		gen = Torus
	}
	before := runtime.NumGoroutine()
	got := gen(rows, cols, w, rand.New(rand.NewSource(1)))
	// A helper's last act, wg.Done, comes just before its exit. The count
	// may also fall, as an earlier subtest's goroutine exits.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d×%d wrap=%v: %d goroutines before the layout, %d after", rows, cols, wrap, before, n)
	}
	want := streamLattice(rows, cols, wrap, w, rand.New(rand.NewSource(1)))
	if g, s := csrDigest(got), csrDigest(want); g != s {
		t.Fatalf("%d×%d wrap=%v: layout digest %s, stream digest %s", rows, cols, wrap, g, s)
	}
	if g, s := got.MemoryBytes(), want.MemoryBytes(); g != s { // no stray weight array
		t.Fatalf("%d×%d wrap=%v: layout holds %d bytes, stream %d", rows, cols, wrap, g, s)
	}
	if err := csrValid(got); err != nil {
		t.Fatalf("%d×%d wrap=%v: %v", rows, cols, wrap, err)
	}
	return got
}

// TestLatticeMatchesStream pins the layout to the stream bit for bit on
// shapes on both sides of the wrap threshold (a dimension longer than 2),
// degenerate ones included, with unit and integer weights; then on both
// sides of latticeParallelMin at GOMAXPROCS 1 and 2, where the layout runs
// on one goroutine and on two.
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
	checkCrossover(t)
}

// checkCrossover compares the layout with the stream at GOMAXPROCS 1 and 2
// on grids and tori just below and just above latticeParallelMin: the
// largest square grid with fewer edges and the next square, single rows,
// which make one block of latticeBlock rows, and one row more than a
// block, which leaves a last block of one row.
func checkCrossover(t *testing.T) {
	side := 1
	for 2*(side+1)*side < latticeParallelMin { // the (side+1)² grid's edges
		side++
	}
	shapes := [][2]int{
		{side, side}, {side + 1, side + 1},
		{1, latticeParallelMin - 1}, {1, latticeParallelMin}, {1, latticeParallelMin + 1},
		{latticeBlock + 1, latticeParallelMin / latticeBlock},
	}
	for _, procs := range []int{1, 2} {
		for _, wrap := range []bool{false, true} {
			below, above := false, false
			for _, sh := range shapes {
				t.Run(fmt.Sprintf("crossover/procs=%d/%dx%d/wrap=%v", procs, sh[0], sh[1], wrap), func(t *testing.T) {
					withProcs(procs, func() {
						m := checkLattice(t, sh[0], sh[1], wrap, IntegerWeights(10)).M()
						below = below || m < latticeParallelMin
						above = above || m >= latticeParallelMin
					})
				})
			}
			if !below || !above {
				t.Fatalf("procs=%d wrap=%v: shapes below latticeParallelMin %v, above %v; want both", procs, wrap, below, above)
			}
		}
	}
}

// TestLatticeFloatFallback draws ~80,000 distinct weights, past the class
// table's 65,536: the layout must switch to float64 weights mid-draw and
// still equal the stream, the ids drawn before the switch included. The
// 200×200 lattices are past latticeParallelMin, so at GOMAXPROCS 2 the
// switch comes while the helper lays out the topology.
func TestLatticeFloatFallback(t *testing.T) {
	if m := 2 * 200 * 199; m < latticeParallelMin {
		t.Fatalf("the 200×200 grid's %d edges are below latticeParallelMin = %d", m, latticeParallelMin)
	}
	for _, procs := range []int{1, 2} {
		withProcs(procs, func() {
			for _, wrap := range []bool{false, true} {
				if c := checkLattice(t, 200, 200, wrap, UniformWeights(1, 2)); c.WeightClasses() != 0 {
					t.Fatalf("GOMAXPROCS=%d wrap=%v: %d weight classes, want the float64 fallback", procs, wrap, c.WeightClasses())
				}
			}
		})
	}
}

// withProcs runs f at GOMAXPROCS procs and restores the setting.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
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
