package dataplane

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"lowmemroute/internal/graph"
)

// routeCases are the instances whose every ordered pair the route checks
// walk: Erdős–Rényi at two stretch parameters, a geometric and a grid
// graph, all generated and built with seed 11.
var routeCases = []struct {
	family graph.Family
	n, k   int
}{
	{graph.FamilyErdosRenyi, 72, 2},
	{graph.FamilyErdosRenyi, 72, 3},
	{graph.FamilyGeometric, 64, 3},
	{graph.FamilyGrid, 64, 2},
}

// readGolden reads a "<case> <rest of line>" golden file into a map.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, rest, ok := strings.Cut(strings.TrimSpace(sc.Text()), " "); ok {
			want[name] = rest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// putWord hashes one little-endian 64-bit word.
func putWord(h hash.Hash, x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	h.Write(b[:])
}

// TestRouteDigestsGolden pins every ordered pair's walk of every
// clusterroute-backed Table 1 scheme row: one SHA-256 per (case, row) over
// each pair's error flag and, when it routes, its length, nodes and
// Float64bits(weight). The goldens in testdata/route_digests.golden were
// recorded from the interpretive map-backed walk the compiled table
// replaced, so any change to a path, a weight bit or a failing pair fails
// here.
func TestRouteDigestsGolden(t *testing.T) {
	want := readGolden(t, "testdata/route_digests.golden")
	for _, tc := range routeCases {
		g, err := graph.GenerateCSR(tc.family, tc.n, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		schemes := buildSchemes(t, g, tc.k, 11)
		for _, row := range []string{"tz", "lp15", "paper"} {
			tab := Compile(schemes[row])
			h := sha256.New()
			errs := 0
			var buf []int
			for src := 0; src < tc.n; src++ {
				for dst := 0; dst < tc.n; dst++ {
					var w float64
					buf, w, err = tab.RouteAppend(src, dst, buf[:0])
					if err != nil {
						errs++
						putWord(h, 1)
						continue
					}
					putWord(h, 0)
					putWord(h, uint64(len(buf)))
					for _, v := range buf {
						putWord(h, uint64(v))
					}
					putWord(h, math.Float64bits(w))
				}
			}
			name := fmt.Sprintf("%s-n%d-k%d/%s", tc.family, tc.n, tc.k, row)
			got := fmt.Sprintf("%s errors=%d", hex.EncodeToString(h.Sum(nil)), errs)
			if got != want[name] {
				t.Errorf("%s: %s, golden %q", name, got, want[name])
			}
		}
	}
}

// TestDegradedDeliveriesGolden pins the crash detours: with five vertices
// of an Erdős–Rényi n=100 k=3 scheme down, every ordered pair's
// RouteAround (sequential, the mask fixed) is hashed — its error flag,
// degraded flag, reroute count and every node it visited, failed walks and
// crankbacks included. The golden in testdata/degraded_deliveries.golden
// was recorded from the goroutine-per-node packet router this walk
// replaced, whose Send made the same decisions over channels.
func TestDegradedDeliveriesGolden(t *testing.T) {
	want := readGolden(t, "testdata/degraded_deliveries.golden")
	s, _ := buildTZ(t, 100, 3, 11)
	tab := Compile(s.Scheme)
	down := make([]atomic.Bool, tab.N())
	for _, v := range []int{5, 17, 42, 63, 88} {
		down[v].Store(true)
	}
	h := sha256.New()
	var failed, degraded, reroutes int
	for src := 0; src < tab.N(); src++ {
		for dst := 0; dst < tab.N(); dst++ {
			path, n, err := tab.RouteAround(src, dst, down, nil)
			flags := uint64(0)
			if err != nil {
				flags |= 1
				failed++
			}
			if n > 0 {
				flags |= 2
				degraded++
			}
			reroutes += n
			putWord(h, flags)
			putWord(h, uint64(n))
			putWord(h, uint64(len(path)))
			for _, v := range path {
				putWord(h, uint64(v))
			}
		}
	}
	const name = "er100-k3-crash5,17,42,63,88"
	got := fmt.Sprintf("%s failed=%d degraded=%d reroutes=%d", hex.EncodeToString(h.Sum(nil)), failed, degraded, reroutes)
	if got != want[name] {
		t.Errorf("%s: %s, golden %q", name, got, want[name])
	}
}
