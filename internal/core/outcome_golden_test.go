package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/wire"
)

// highKOutcomeGolden holds, per case, the SHA-256 of every vertex's encoded
// table and label (wire.EncodeTable then wire.EncodeLabel, vertex by
// vertex) after one Build at seed 1. Only k >= 4 runs approximate pivots,
// so these are the outcomes that pin them; rounds, messages and meters are
// deliberately left out, so a change of cost alone never moves a line.
var highKOutcomeGolden = map[string]string{
	"erdos-renyi n=128 k=4": "c04a630c1c2066dfadb8cb628abfd0f8a6fa445ecac9aca0af993f3aec6c0ca7",
	"erdos-renyi n=128 k=5": "f12b8e22d1035f5ecb2d2cad55e57205445f223bdd42558c10ec8ad08d3d929e",
	"erdos-renyi n=128 k=6": "e8872a60889dbd7e680c2fdd2fadb06cb2a40bf3f7b2a02b6e8eb0f57ea47a73",
	"grid n=144 k=4":        "0527b9580789030c73897ac9361e7bdb5744b70daf6cf283f98890dbeae9d312",
	"grid n=144 k=5":        "f811276661dc0fea0729cf29772ea09f059400de35b7ee21ca4bf2bf41d712aa",
	"grid n=144 k=6":        "39825db239637d34db7ac8ef2df196d8d027f27246b626faa20a2f7f0a06bb18",
	"geometric n=128 k=4":   "5aeedd759dfd14a0fee81698c025fe639ca763f93084ea93d3956b2a9e0a3d74",
	"geometric n=128 k=5":   "3c111066a452fafa2c4ac6a33408ce4f1c4404580f66a6f30d9d6e7aaadeb01f",
	"geometric n=128 k=6":   "ae7bee03c4a22779a2cfcc183180279895c396c1fd6e520999a8917a066eb29c",
	"power-law n=128 k=4":   "f43dab20fbb73478b0bd38a2aef1dcd2b069c27c0f0ab320a6050bcdc9b751c9",
	"power-law n=128 k=5":   "cda7bf42914e1448492e2f7a01ae6918d78770b64ba18ee5d261abef159e5fb6",
	"power-law n=128 k=6":   "c11f3673f7ad7091ae3e68e8559739b72e076aa0e9cbd02e7aabbc891b1eb3b6",
}

// TestHighKOutcomeGolden pins the routing tables and labels that builds at
// k = 4, 5 and 6 produce on four graph families.
func TestHighKOutcomeGolden(t *testing.T) {
	cases := []struct {
		family graph.Family
		n      int
	}{
		{graph.FamilyErdosRenyi, 128},
		{graph.FamilyGrid, 144},
		{graph.FamilyGeometric, 128},
		{graph.FamilyPowerLaw, 128},
	}
	const seed = 1
	for _, c := range cases {
		topo, err := graph.GenerateCSR(c.family, c.n, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for k := 4; k <= 6; k++ {
			name := fmt.Sprintf("%s n=%d k=%d", c.family, c.n, k)
			s, err := Build(congest.NewTopo(topo), Options{K: k, Seed: seed})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			h := sha256.New()
			for v := 0; v < topo.N(); v++ {
				h.Write(wire.EncodeTable(s.Table(v)))
				h.Write(wire.EncodeLabel(s.Labels[v]))
			}
			if got, want := fmt.Sprintf("%x", h.Sum(nil)), highKOutcomeGolden[name]; got != want {
				t.Errorf("%s: tables and labels hash %s, golden %s", name, got, want)
			}
		}
	}
}

// longPathGolden is the TestHighKOutcomeGolden hash of a k=4 Build at
// seed 1 on graph.Path(512, IntegerWeights(10)) drawn from seed 1.
const longPathGolden = "b4b51cc28ed12b2ae6a6345e6660bf3202918fc0946f4470503a191cd795fa11"

// TestLongPathOutcomeGolden reaches the approximate pivots' H step, which
// TestHighKOutcomeGolden's builds never do. On a 512-vertex path at k=4,
// B = ⌈1.5·√512·ln 513⌉ = 212 hops, below the hop diameter of 511. Seed 1
// samples A_3 = {106, 144, 215}, so the far end of the path lies 296 hops
// from its nearest pivot. The kernel then runs more than one iteration, and
// some final pivot estimates arrive over hopset edges. (On a 128-vertex
// path, B = 83 < 127 too, but at seeds 1–12 every final pivot estimate
// there arrives over G.) The test pins the build's tables and labels as
// TestHighKOutcomeGolden does.
func TestLongPathOutcomeGolden(t *testing.T) {
	const n, k, seed = 512, 4, 1
	topo := graph.Path(n, graph.IntegerWeights(10), rand.New(rand.NewSource(seed)))
	opts := Options{K: k, Seed: seed}

	// The build's phases up to the approximate pivots, to read the
	// kernel's run for level k-1, the one approximate level.
	b := newBuilder(congest.NewTopo(topo), opts.withDefaults())
	for _, phase := range []func() error{b.exactPivots, b.lowClusters, b.buildHopset, b.approxPivots} {
		if err := phase(); err != nil {
			t.Fatal(err)
		}
	}
	if b.maxBeta < 2 {
		t.Fatalf("the approximate pivots ran %d limited Bellman–Ford iterations, want more than one", b.maxBeta)
	}
	hStep := 0
	for v := range n {
		if e := b.bf.Get(v, pivotSet); e != nil && e.Via != graph.NoVertex {
			hStep++
		}
	}
	if hStep == 0 {
		t.Fatal("no final pivot estimate arrived over a hopset edge")
	}

	s, err := Build(congest.NewTopo(topo), opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats.B >= n-1 {
		t.Fatalf("B = %d hops, not below the path's hop diameter %d", s.Stats.B, n-1)
	}
	h := sha256.New()
	for v := 0; v < n; v++ {
		h.Write(wire.EncodeTable(s.Table(v)))
		h.Write(wire.EncodeLabel(s.Labels[v]))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != longPathGolden {
		t.Errorf("tables and labels hash %s, golden %s", got, longPathGolden)
	}
}
