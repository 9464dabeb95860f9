package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantizeWeightsDistortionBound(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := ErdosRenyi(100, 0.08, UniformWeights(1, 1e6), r)
	eps := 0.1
	q := g.QuantizeWeights(eps)
	if q.N() != g.N() || q.M() != g.M() {
		t.Fatalf("shape changed: %d/%d vs %d/%d", q.N(), q.M(), g.N(), g.M())
	}
	// Per-edge distortion in [1, 1+eps].
	qe := q.Edges()
	for i, e := range g.Edges() {
		ratio := qe[i].Weight / e.Weight
		if ratio < 1-1e-12 || ratio > (1+eps)+1e-9 {
			t.Fatalf("edge {%d,%d}: distortion %v", e.U, e.V, ratio)
		}
	}
	// Whole-metric distortion in [1, 1+eps].
	exact := Dijkstra(FromGraph(g), 0)
	quant := Dijkstra(FromGraph(q), 0)
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

func TestQuantizeWeightsZeroEpsIsClone(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := ErdosRenyi(40, 0.1, UniformWeights(1, 100), r)
	q := g.QuantizeWeights(0)
	ge, qe := g.Edges(), q.Edges()
	for i := range ge {
		if ge[i] != qe[i] {
			t.Fatalf("edge %d changed: %v vs %v", i, ge[i], qe[i])
		}
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
		q := g.QuantizeWeights(eps)
		if q.Validate() != nil {
			return false
		}
		qe := q.Edges()
		for i, e := range g.Edges() {
			if qe[i].Weight < e.Weight || qe[i].Weight > e.Weight*(1+eps)*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
