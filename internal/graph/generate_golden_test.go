package graph

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// generateGolden holds one "<family> n=<n> seed=<seed> N=<N> M=<M> <sha256>"
// line per generated instance (see csrDigest).
const generateGolden = "testdata/generate_csr.golden"

// csrDigest is the SHA-256 of a topology's every observable bit: N, the
// arc offsets, the neighbour ids in adjacency order and the IEEE-754 bits
// of every arc weight, all little-endian.
func csrDigest(c *CSR) string {
	h := sha256.New()
	var buf [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	word(uint64(c.N()))
	for u := 0; u <= c.N(); u++ {
		word(uint64(c.off[u]))
	}
	for u := 0; u < c.N(); u++ {
		to, base := c.NeighborRange(u)
		for i, v := range to {
			word(uint64(v))
			word(math.Float64bits(c.ArcWeight(base + i)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenFamilies lists every generator family in the golden file's order.
var goldenFamilies = []Family{
	FamilyErdosRenyi, FamilyGeometric, FamilyGrid,
	FamilyTorus, FamilyPowerLaw, FamilyHypercube,
}

// TestGenerateCSRGolden pins every family's generated topology bit for bit:
// all six families at n ∈ {0, 1, 2, 3, 17, 192, 256, 400, 4096} (Erdős–Rényi
// up to n = 1000, since it flips a coin per vertex pair) and seeds 1–3, and
// the grid and the torus at n = 65536 too: past latticeParallelMin, where
// the layout runs on two goroutines when GOMAXPROCS allows.
// The digests were recorded from the generators before Erdős–Rényi was
// streamed, so any change to an edge order, a weight or the RNG draw
// sequence of any family fails here.
func TestGenerateCSRGolden(t *testing.T) {
	f, err := os.Open(generateGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			i := strings.LastIndexByte(line, ' ')
			want[line[:i]] = line[i+1:]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	cases := 0
	for _, fam := range goldenFamilies {
		for _, n := range []int{0, 1, 2, 3, 17, 192, 256, 400, 4096, 1 << 16} {
			if fam == FamilyErdosRenyi && n > 1000 || n > 4096 && fam != FamilyGrid && fam != FamilyTorus {
				continue
			}
			cases += 3
			t.Run(fmt.Sprintf("%s/%d", fam, n), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					c, err := GenerateCSR(fam, n, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					key := fmt.Sprintf("%s n=%d seed=%d N=%d M=%d", fam, n, seed, c.N(), c.M())
					if got, ok := want[key]; !ok {
						t.Errorf("%s: no golden line (digest %s)", key, csrDigest(c))
					} else if d := csrDigest(c); d != got {
						t.Errorf("%s: digest %s, golden %s", key, d, got)
					}
				}
			})
		}
	}
	if cases != len(want) {
		t.Errorf("%d cases, golden file has %d lines", cases, len(want))
	}
}
