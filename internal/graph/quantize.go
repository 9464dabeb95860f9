package graph

import (
	"math"
	"sort"
)

// Quantize returns the graph with every edge weight rounded UP to the
// nearest integer power of (1+eps). This implements the paper's Section 2
// adaptation to the standard CONGEST model: a quantized weight is just its
// exponent, which fits in O(log log Λ + log 1/ε) bits instead of O(log Λ),
// so messages carrying weights stay within the O(log n)-bit budget with
// overhead O((log log Λ + log 1/ε)/log n) - the log_n(log Λ) dependence the
// paper contrasts with prior schemes' Ω(log Λ).
//
// Rounding up keeps weights positive and distorts every path length by a
// factor in [1, 1+eps], so a routing scheme with stretch ρ built on the
// quantized graph has stretch at most ρ·(1+eps) on the original.
//
// With eps ≤ 0 it returns c itself: a CSR is immutable, so sharing it is
// safe. Otherwise the result streams each edge once, in ascending (u, v)
// order with u < v; parallel edges keep their order in c.
func (c *CSR) Quantize(eps float64) *CSR {
	if eps <= 0 {
		return c
	}
	base := 1 + eps
	b := NewCSRBuilder(c.N())
	b.reserve(c.m)
	var up []int32 // u's arcs to higher ids
	for u := 0; u < c.N(); u++ {
		to, first := c.NeighborRange(u)
		up = up[:0]
		for i, v := range to {
			if int(v) > u {
				up = append(up, int32(first+i))
			}
		}
		sort.SliceStable(up, func(i, j int) bool { return c.to[up[i]] < c.to[up[j]] })
		for _, a := range up {
			w := c.ArcWeight(int(a))
			exp := math.Ceil(math.Log(w) / math.Log(base))
			q := math.Pow(base, exp)
			if q < w { // guard against floating-point undershoot
				q = w
			}
			b.add(u, int(c.to[a]), q)
		}
	}
	return b.Build()
}

// QuantizedWeightBits returns the number of bits needed to transmit one
// quantized weight of a graph with aspect ratio lambda: the exponent range
// is O(log_{1+eps} Λ), so its encoding takes O(log log Λ + log 1/ε) bits.
func QuantizedWeightBits(lambda, eps float64) int {
	if lambda < 1 {
		lambda = 1
	}
	if eps <= 0 {
		eps = 1e-9
	}
	exponents := math.Log(lambda)/math.Log(1+eps) + 2
	return int(math.Ceil(math.Log2(exponents))) + 1 // +1 sign/offset bit
}

// RawWeightBits returns the bits needed for an unquantized weight: the
// O(log Λ) cost prior schemes pay per message.
func RawWeightBits(lambda float64) int {
	if lambda < 2 {
		lambda = 2
	}
	return int(math.Ceil(math.Log2(lambda))) + 1
}
