package graph

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// csrIdentical fails the test unless a and b hold the same arrays: offsets,
// neighbors, class table, classes and fallback weights, nil-ness included.
func csrIdentical(t *testing.T, a, b *CSR) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("CSRs differ: m %d/%d, %d/%d classes, w64 %d/%d arcs",
			a.m, b.m, len(a.classes), len(b.classes), len(a.w64), len(b.w64))
	}
}

// freezeBoth freezes an edge stream in one pass and split at its middle;
// see freezeSplit.
func freezeBoth(t *testing.T, n int, eu, ev []int, ew []float64) *CSR {
	t.Helper()
	return freezeSplit(t, n, eu, ev, ew, len(eu)/2)
}

// freezeSplit freezes the same edge stream through one CSRBuilder, and
// through a builder that freezes the first split edges, thaws, and adds the
// rest; it checks the two CSRs are identical. It then checks every arc
// against a reference adjacency list of the stream, neighbour order and
// exact weight bits, and that the class table, when kept, is strictly
// ascending. It returns the one-pass CSR.
func freezeSplit(t *testing.T, n int, eu, ev []int, ew []float64, split int) *CSR {
	t.Helper()
	add := func(b *CSRBuilder, lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := b.AddEdge(eu[i], ev[i], ew[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	one := NewCSRBuilder(n)
	add(one, 0, len(eu))
	c := one.Build()
	prefix := NewCSRBuilder(n)
	add(prefix, 0, split)
	thawed := prefix.Build().Thaw()
	add(thawed, split, len(eu))
	csrIdentical(t, thawed.Build(), c)

	type arc struct {
		to int32
		w  uint64
	}
	ref := make([][]arc, n)
	for i := range eu {
		w := math.Float64bits(ew[i])
		ref[eu[i]] = append(ref[eu[i]], arc{int32(ev[i]), w})
		ref[ev[i]] = append(ref[ev[i]], arc{int32(eu[i]), w})
	}
	for u := 0; u < n; u++ {
		to, base := c.NeighborRange(u)
		if len(to) != len(ref[u]) {
			t.Fatalf("vertex %d: degree %d, added %d", u, len(to), len(ref[u]))
		}
		for i, a := range ref[u] {
			if w := math.Float64bits(c.ArcWeight(base + i)); to[i] != a.to || w != a.w {
				t.Fatalf("vertex %d arc %d: (%d, %#x), added (%d, %#x)", u, i, to[i], w, a.to, a.w)
			}
		}
	}
	for i := 1; i < len(c.classes); i++ {
		if !(c.classes[i-1] < c.classes[i]) {
			t.Fatalf("classes not strictly ascending at %d: %v, %v", i, c.classes[i-1], c.classes[i])
		}
	}
	return c
}

// ulpPath returns a path on d+1 vertices whose d edges carry d distinct
// weights, each one ulp above the last, in shuffled order, plus a chord
// per 64 edges that repeats an existing weight.
func ulpPath(d int) (n int, eu, ev []int, ew []float64) {
	ws := make([]float64, d)
	w := 1.0
	for i := range ws {
		ws[i] = w
		w = math.Nextafter(w, math.Inf(1))
	}
	r := rand.New(rand.NewSource(int64(d)))
	r.Shuffle(d, func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	for i := 0; i < d; i++ {
		eu, ev, ew = append(eu, i), append(ev, i+1), append(ew, ws[i])
		if i%64 == 0 && i+2 <= d {
			eu, ev, ew = append(eu, i), append(ev, i+2), append(ew, ws[i/2])
		}
	}
	return d + 1, eu, ev, ew
}

// TestWeightClassBoundary pins the class-table limit: 65,536 distinct
// weights keep uint16 classes, 65,537 fall back to per-arc float64s, and
// both read back every weight exactly. The weights are one ulp apart, so
// any classer that merged near-equal values would lose one.
func TestWeightClassBoundary(t *testing.T) {
	for _, tc := range []struct {
		distinct, classes int
	}{
		{maxWeightClasses, maxWeightClasses},
		{maxWeightClasses + 1, 0},
	} {
		n, eu, ev, ew := ulpPath(tc.distinct)
		c := freezeBoth(t, n, eu, ev, ew)
		if got := c.WeightClasses(); got != tc.classes {
			t.Fatalf("%d distinct weights: WeightClasses() = %d, want %d", tc.distinct, got, tc.classes)
		}
		if kept := c.w64 == nil; kept != (tc.classes > 0) {
			t.Fatalf("%d distinct weights: class table kept = %v", tc.distinct, kept)
		}
	}
}

// TestWeightClassEdgeCases freezes small streams through both paths: no
// edges, one weight repeated, adjacent ulps, subnormals and the largest
// finite float64.
func TestWeightClassEdgeCases(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	for _, ws := range [][]float64{
		nil,
		{7, 7, 7, 7},
		{1, math.Nextafter(1, 2), math.Nextafter(1, 0), 1},
		{tiny, 2 * tiny, tiny, math.Float64frombits(0x000fffffffffffff)},
		{math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0), 1, math.MaxFloat64},
	} {
		n := len(ws) + 1
		var eu, ev []int
		for i := range ws {
			eu, ev = append(eu, i), append(ev, i+1)
		}
		freezeBoth(t, n, eu, ev, ws)
	}
}

// FuzzFreezeWeights feeds arbitrary positive finite weights on arbitrary
// edges through freezeSplit. Each 10-byte record is one edge: two endpoint
// bytes and the 8-byte little-endian bits of its weight, with the sign
// cleared; records that decode to a self-loop, zero, an infinity or a NaN
// are skipped. The first byte after the last whole record, if any, picks
// the split point; without one the stream splits in the middle. The seed
// corpus is in testdata/fuzz/FuzzFreezeWeights.
func FuzzFreezeWeights(f *testing.F) {
	f.Fuzz(func(t *testing.T, size uint8, data []byte) {
		n := 2 + int(size)%32
		var eu, ev []int
		var ew []float64
		for ; len(data) >= 10; data = data[10:] {
			u, v := int(data[0])%n, int(data[1])%n
			w := math.Float64frombits(binary.LittleEndian.Uint64(data[2:10]) &^ (1 << 63))
			if u == v || w == 0 || math.IsInf(w, 0) || math.IsNaN(w) {
				continue
			}
			eu, ev, ew = append(eu, u), append(ev, v), append(ew, w)
		}
		split := len(eu) / 2
		if len(data) > 0 {
			split = int(data[0]) % (len(eu) + 1)
		}
		freezeSplit(t, n, eu, ev, ew, split)
	})
}

// TestStreamConstructorsPresize pins the builder presizing: a family whose
// edge count GenerateCSR reserves up front allocates the same number of
// times at every size, where appending into an unsized builder regrows its
// three edge arrays about log2(m) times each. The grid and the torus, laid
// out in place at their exact size, are held to the same count.
func TestStreamConstructorsPresize(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, f := range []Family{FamilyGrid, FamilyTorus, FamilyHypercube, FamilyPowerLaw} {
		gen := func(n int) {
			if _, err := GenerateCSR(f, n, r); err != nil {
				t.Fatal(err)
			}
		}
		// Ten runs each: AllocsPerRun truncates the mean, so a stray
		// allocation elsewhere in the process does not tip the comparison.
		small := testing.AllocsPerRun(10, func() { gen(1 << 12) })
		large := testing.AllocsPerRun(10, func() { gen(1 << 16) })
		if small != large {
			t.Errorf("%s: %v allocations at the small size, %v at the large one", f, small, large)
		}
	}
}
