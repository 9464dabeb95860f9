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

// countingSource counts the Int63 calls made on the source it wraps.
type countingSource struct {
	rand.Source
	calls int
}

func (s *countingSource) Int63() int64 {
	s.calls++
	return s.Source.Int63()
}

// latticeWeights is the weight function a CSRBuilder is fed to equal the
// layout with weights up to wmax: UnitWeights when wmax is at most 1,
// else IntegerWeights(wmax) with wmax clamped to maxWeightClasses.
func latticeWeights(wmax int) WeightFunc {
	if wmax <= 1 {
		return UnitWeights
	}
	return IntegerWeights(min(wmax, maxWeightClasses))
}

// checkLattice compares Grid or Torus with weights up to wmax against
// streamLattice fed latticeWeights(wmax), both on seed's stream, digest for
// digest and Int63 call for call, and returns the layout and its Int63
// calls. The layout must leave no goroutine running behind it.
func checkLattice(t *testing.T, rows, cols int, wrap bool, wmax int, seed int64) (*CSR, int) {
	t.Helper()
	gen := Grid
	if wrap {
		gen = Torus
	}
	before := runtime.NumGoroutine()
	gotSrc := &countingSource{Source: rand.NewSource(seed)}
	got := gen(rows, cols, wmax, rand.New(gotSrc))
	// A helper's last act, wg.Done, comes just before its exit. The count
	// may also fall, as an earlier subtest's goroutine exits.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d×%d wrap=%v: %d goroutines before the layout, %d after", rows, cols, wrap, before, n)
	}
	wantSrc := &countingSource{Source: rand.NewSource(seed)}
	want := streamLattice(rows, cols, wrap, latticeWeights(wmax), rand.New(wantSrc))
	if g, s := csrDigest(got), csrDigest(want); g != s {
		t.Fatalf("%d×%d wrap=%v wmax=%d: layout digest %s, stream digest %s", rows, cols, wrap, wmax, g, s)
	}
	if gotSrc.calls != wantSrc.calls {
		t.Fatalf("%d×%d wrap=%v wmax=%d: layout drew %d Int63s, stream %d", rows, cols, wrap, wmax, gotSrc.calls, wantSrc.calls)
	}
	if g, s := got.MemoryBytes(), want.MemoryBytes(); g != s { // no stray weight array
		t.Fatalf("%d×%d wrap=%v: layout holds %d bytes, stream %d", rows, cols, wrap, g, s)
	}
	if err := csrValid(got); err != nil {
		t.Fatalf("%d×%d wrap=%v: %v", rows, cols, wrap, err)
	}
	return got, gotSrc.calls
}

// TestLatticeMatchesStream pins the layout to the stream bit for bit on
// shapes on both sides of the wrap threshold (a dimension longer than 2),
// degenerate ones included, with unit and integer weights; then on both
// sides of latticeParallelMin at GOMAXPROCS 1 and 2, where the layout runs
// on one goroutine and on two; then its inlined draw against math/rand's
// own r.Intn for every wmax case.
func TestLatticeMatchesStream(t *testing.T) {
	shapes := [][2]int{
		{1, 1}, {1, 2}, {2, 1}, {2, 2}, {2, 3}, {3, 2}, {3, 3}, {3, 5}, {5, 3}, {17, 4},
		{0, 4}, {4, 0}, {-2, -3},
	}
	weights := []struct {
		name string
		wmax int
	}{{"unit", 1}, {"int10", 10}}
	for _, sh := range shapes {
		for _, wrap := range []bool{false, true} {
			for _, wt := range weights {
				t.Run(fmt.Sprintf("%dx%d/wrap=%v/%s", sh[0], sh[1], wrap, wt.name), func(t *testing.T) {
					checkLattice(t, sh[0], sh[1], wrap, wt.wmax, 1)
				})
			}
		}
	}
	checkCrossover(t)
	checkDraws(t)
}

// crossoverSide is the side of the largest square grid with fewer than
// latticeParallelMin edges.
func crossoverSide() int {
	side := 1
	for 2*(side+1)*side < latticeParallelMin { // the (side+1)² grid's edges
		side++
	}
	return side
}

// checkCrossover compares the layout with the stream at GOMAXPROCS 1 and 2
// on grids and tori just below and just above latticeParallelMin: the
// largest square grid with fewer edges and the next square, single rows,
// which make one block of latticeBlock rows, and one row more than a
// block, which leaves a last block of one row.
func checkCrossover(t *testing.T) {
	side := crossoverSide()
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
						c, _ := checkLattice(t, sh[0], sh[1], wrap, 10, 1)
						below = below || c.M() < latticeParallelMin
						above = above || c.M() >= latticeParallelMin
					})
				})
			}
			if !below || !above {
				t.Fatalf("procs=%d wrap=%v: shapes below latticeParallelMin %v, above %v; want both", procs, wrap, below, above)
			}
		}
	}
}

// checkDraws pins the layout's inlined Int31n to math/rand's r.Intn, which
// the stream's IntegerWeights draws through, at GOMAXPROCS 1 and 2 on a
// single row below latticeParallelMin and a square grid above it. 2 and 16
// take r.Intn's power-of-two mask; the others its rejection loop, which at
// 65535 rejects a draw with odds of about 1.5·10⁻⁵: seed 1's 5,693rd draw,
// within every shape here.
func checkDraws(t *testing.T) {
	side := crossoverSide() + 1
	shapes := [][2]int{{1, latticeParallelMin - 1}, {side, side}}
	for _, wmax := range []int{1, 2, 16, 3, 10, 100, 65535, 65536} {
		for _, procs := range []int{1, 2} {
			for _, sh := range shapes {
				for _, wrap := range []bool{false, true} {
					t.Run(fmt.Sprintf("draws/wmax=%d/procs=%d/%dx%d/wrap=%v", wmax, procs, sh[0], sh[1], wrap), func(t *testing.T) {
						withProcs(procs, func() {
							c, calls := checkLattice(t, sh[0], sh[1], wrap, wmax, 1)
							draws := c.M()
							if wmax == 1 {
								draws = 0
							}
							if wmax == 65535 && calls <= draws {
								t.Fatalf("%d draws took %d Int63 calls: none was rejected", draws, calls)
							} else if wmax != 65535 && calls != draws {
								t.Fatalf("%d draws took %d Int63 calls", draws, calls)
							}
						})
					})
				}
			}
		}
	}
}

// TestLatticeClampsWmax checks that a wmax below 1 lays out unit weights
// without a draw, and one above maxWeightClasses the draws of
// IntegerWeights(maxWeightClasses) (see latticeWeights), on both sides of
// latticeParallelMin.
func TestLatticeClampsWmax(t *testing.T) {
	side := crossoverSide() + 1
	for _, wmax := range []int{0, -5, maxWeightClasses + 1, 1 << 30} {
		for _, sh := range [][2]int{{5, 3}, {side, side}} {
			checkLattice(t, sh[0], sh[1], true, wmax, 2)
		}
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
