package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// sortedEdges lists c's edges once each, u < v, in ascending (u, v) order.
func sortedEdges(c *CSR) []edge {
	var es []edge
	for u := 0; u < c.N(); u++ {
		to, base := c.NeighborRange(u)
		for i, v := range to {
			if int(v) > u {
				es = append(es, edge{u, int(v), c.ArcWeight(base + i)})
			}
		}
	}
	sort.SliceStable(es, func(i, j int) bool {
		return es[i].u < es[j].u || es[i].u == es[j].u && es[i].v < es[j].v
	})
	return es
}

func TestQuantizeDistortionBound(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := ErdosRenyi(100, 0.08, UniformWeights(1, 1e6), r)
	eps := 0.1
	q := g.Quantize(eps)
	if q.N() != g.N() || q.M() != g.M() {
		t.Fatalf("shape changed: %d/%d vs %d/%d", q.N(), q.M(), g.N(), g.M())
	}
	// Per-edge distortion in [1, 1+eps].
	qe := sortedEdges(q)
	for i, e := range sortedEdges(g) {
		ratio := qe[i].w / e.w
		if ratio < 1-1e-12 || ratio > (1+eps)+1e-9 {
			t.Fatalf("edge {%d,%d}: distortion %v", e.u, e.v, ratio)
		}
	}
	// Whole-metric distortion in [1, 1+eps].
	exact := Dijkstra(g, 0)
	quant := Dijkstra(q, 0)
	for v := 0; v < g.N(); v++ {
		if exact.Dist[v] == Infinity {
			continue
		}
		ratio := quant.Dist[v] / exact.Dist[v]
		if v != 0 && (ratio < 1-1e-12 || ratio > (1+eps)+1e-9) {
			t.Fatalf("vertex %d: metric distortion %v", v, ratio)
		}
	}
}

// TestQuantizeZeroEpsSharesReceiver pins that Quantize(0) returns its
// receiver, which is safe because a CSR is immutable.
func TestQuantizeZeroEpsSharesReceiver(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := ErdosRenyi(40, 0.1, UniformWeights(1, 100), r)
	if q := g.Quantize(0); q != g {
		t.Fatal("Quantize(0) should return its receiver")
	}
}

func TestQuantizedWeightBitsShrink(t *testing.T) {
	// The paper's point: log log Λ bits instead of log Λ.
	lambda := math.Pow(2, 40) // 40-bit weights
	raw := RawWeightBits(lambda)
	quant := QuantizedWeightBits(lambda, 0.05)
	if raw < 40 {
		t.Fatalf("raw bits %d", raw)
	}
	if quant >= raw/2 {
		t.Fatalf("quantized bits %d should be far below raw %d", quant, raw)
	}
	// Monotone in lambda, gently.
	q2 := QuantizedWeightBits(math.Pow(2, 80), 0.05)
	if q2 < quant || q2 > quant+2 {
		t.Fatalf("doubling log-lambda should add ~1 bit: %d -> %d", quant, q2)
	}
}

// Property: quantization preserves positivity and never shrinks weights.
func TestQuantizeProperty(t *testing.T) {
	f := func(seed int64, epsRaw uint8) bool {
		eps := 0.01 + float64(epsRaw)/256
		r := rand.New(rand.NewSource(seed))
		g := ErdosRenyi(30, 0.15, UniformWeights(0.5, 1e4), r)
		q := g.Quantize(eps)
		if csrValid(q) != nil {
			return false
		}
		qe := sortedEdges(q)
		for i, e := range sortedEdges(g) {
			if qe[i].w < e.w || qe[i].w > e.w*(1+eps)*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
