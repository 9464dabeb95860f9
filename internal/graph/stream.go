package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// This file holds the generator cores of GenerateCSR's streamed families:
// Erdős–Rényi, geometric, power-law and the hypercube each have exactly
// one, which emits its edges in a fixed, documented order through an emit
// callback. GenerateCSR and the constructors of generators.go stream a core
// straight into a CSRBuilder, so the edge order, the weights and the RNG
// consumption are the core's. No adjacency lists or other per-vertex slice
// state are materialised: transient memory is the builder's flat edge
// arrays plus O(n) generator scratch. The grid and the torus have no
// stream: lattice lays them out in place.

// streamErdosRenyi emits G(n, p) plus a connecting backbone: first the
// Hamiltonian path over r.Perm(n), one weight per backbone edge, then one
// r.Float64() coin per vertex pair u < v in ascending (u, v) order, emitting
// the pair with a fresh weight when the coin falls below p and the backbone
// has not already joined it. A backbone vertex has at most two backbone
// neighbours, so prev/next arrays answer "already joined" in O(1), and
// memory stays O(n + m) — but the coins still cost O(n²) time.
func streamErdosRenyi(n int, p float64, w WeightFunc, r *rand.Rand, emit func(u, v int, wt float64)) {
	perm := r.Perm(n)
	prev := make([]int32, n)
	next := make([]int32, n)
	for i := range prev {
		prev[i], next[i] = -1, -1
	}
	for i := 1; i < n; i++ {
		a, b := perm[i-1], perm[i]
		emit(a, b, w(r))
		next[a], prev[b] = int32(b), int32(a)
	}
	for u := 0; u < n; u++ {
		pu, nu := int(prev[u]), int(next[u])
		for v := u + 1; v < n; v++ {
			if r.Float64() < p && v != pu && v != nu {
				emit(u, v, w(r))
			}
		}
	}
}

// streamHypercube emits the d-dimensional hypercube in ascending (u, bit)
// order, matching the historical Hypercube order.
func streamHypercube(d int, w WeightFunc, r *rand.Rand, emit func(u, v int, wt float64)) {
	n := 1 << d
	for u := 0; u < n; u++ {
		for b := 0; b < d; b++ {
			v := u ^ (1 << b)
			if u < v {
				emit(u, v, w(r))
			}
		}
	}
}

// streamBarabasiAlbert emits a preferential-attachment graph: each new
// vertex attaches to m existing vertices chosen proportionally to degree
// via a repeated-endpoint list. The m distinct targets of each new vertex
// are emitted in ascending order (the historical implementation iterated a
// Go map here, which made the edge order — and therefore the weights and
// all downstream traces — nondeterministic across runs; sorted order fixes
// the stream). RNG consumption is unchanged: targets are drawn until m
// distinct, then one weight per emitted edge.
func streamBarabasiAlbert(n, m int, w WeightFunc, r *rand.Rand, emit func(u, v int, wt float64)) {
	if m < 1 {
		m = 1
	}
	if n == 0 {
		return
	}
	endpoints := make([]int32, 0, 2*m*n)
	start := m + 1
	if start > n {
		start = n
	}
	for u := 1; u < start; u++ {
		emit(u, u-1, w(r))
		endpoints = append(endpoints, int32(u), int32(u-1))
	}
	chosen := make(map[int]bool, m)
	targets := make([]int, 0, m)
	for u := start; u < n; u++ {
		clear(chosen)
		for len(chosen) < m {
			v := int(endpoints[r.Intn(len(endpoints))])
			if v != u {
				chosen[v] = true
			}
		}
		targets = targets[:0]
		for v := range chosen {
			targets = append(targets, v)
		}
		sort.Ints(targets)
		for _, v := range targets {
			emit(u, v, w(r))
			endpoints = append(endpoints, int32(u), int32(v))
		}
	}
}

// streamGeometric emits the random geometric graph with O(n) scratch: the
// n points are drawn exactly as RandomGeometric draws them, but pair
// discovery uses a radius-sized cell grid instead of the O(n^2) all-pairs
// scan. Edges come out in the same order — u ascending, v ascending within
// u — with the same weights, and the connectivity stitch along the
// x-sorted order is replayed with a union-find instead of component
// relabelling, producing the identical stitch-edge sequence.
func streamGeometric(n int, radius float64, r *rand.Rand, emit func(u, v int, wt float64)) {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	weight := func(d float64) float64 { return math.Max(1, d*1000) }
	dist := func(u, v int) float64 {
		dx, dy := xs[u]-xs[v], ys[u]-ys[v]
		return math.Sqrt(dx*dx + dy*dy)
	}

	// Union-find over the edges as they are emitted, for the stitch pass.
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(int32(a)), find(int32(b))
		if ra != rb {
			parent[ra] = rb
		}
	}

	// Bucket points into cells of side = radius; any pair within radius
	// lands in the same or an adjacent cell (floor is monotone, so a
	// coordinate gap ≤ radius is a cell gap ≤ 1).
	side := 1
	if radius > 0 && radius < 1 {
		side = int(1/radius) + 1
	}
	cellOf := func(i int) (int, int) {
		if radius <= 0 {
			return 0, 0
		}
		cx := int(xs[i] / radius)
		cy := int(ys[i] / radius)
		if cx >= side {
			cx = side - 1
		}
		if cy >= side {
			cy = side - 1
		}
		return cx, cy
	}
	cellStart := make([]int32, side*side+1)
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		cellStart[cx*side+cy+1]++
	}
	for c := 0; c < side*side; c++ {
		cellStart[c+1] += cellStart[c]
	}
	cellPts := make([]int32, n)
	cursor := make([]int32, side*side)
	copy(cursor, cellStart[:side*side])
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		c := cx*side + cy
		cellPts[cursor[c]] = int32(i)
		cursor[c]++
	}

	cand := make([]int32, 0, 64)
	for u := 0; u < n; u++ {
		cx, cy := cellOf(u)
		cand = cand[:0]
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				gx, gy := cx+dx, cy+dy
				if gx < 0 || gx >= side || gy < 0 || gy >= side {
					continue
				}
				c := gx*side + gy
				for _, v := range cellPts[cellStart[c]:cellStart[c+1]] {
					if int(v) > u {
						cand = append(cand, v)
					}
				}
			}
		}
		sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })
		for _, v32 := range cand {
			v := int(v32)
			if d := dist(u, v); d <= radius {
				emit(u, v, weight(d))
				union(u, v)
			}
		}
	}

	// Stitch components along the x-sorted point order (stable in vertex
	// id for equal x, like the historical insertion sort).
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool { return xs[order[i]] < xs[order[j]] })
	for i := 1; i < n; i++ {
		u, v := int(order[i-1]), int(order[i])
		if find(int32(u)) != find(int32(v)) {
			emit(u, v, weight(dist(u, v)))
			union(u, v)
		}
	}
}

// GenerateCSR builds an n-vertex connected instance of the named family
// with its density defaults, streaming the family's core straight into a
// CSR, or for the grid and the torus laying it out in place: no adjacency
// lists, and generator scratch of O(n), or O(n + m) for the flat edge
// arrays. Every family but Erdős–Rényi also runs in O(n + m) time;
// Erdős–Rényi flips one coin per vertex pair, so it takes O(n²) time and
// does not suit million-vertex runs. Grid and torus round n to rows×cols
// and the hypercube to a power of two, so read N() back. A negative n is
// an error.
func GenerateCSR(f Family, n int, r *rand.Rand) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: %s with %d vertices", f, n)
	}
	var b *CSRBuilder
	switch f {
	case FamilyErdosRenyi:
		p := erdosRenyiDefaultP(n)
		b = NewCSRBuilder(n)
		// The backbone plus the expected coin hits and some slack, so the
		// edge arrays rarely regrow.
		hits := p * float64(n) * float64(n-1) / 2
		b.reserve(max(n-1, 0) + int(hits+4*math.Sqrt(hits)) + 8)
		streamErdosRenyi(n, p, IntegerWeights(100), r, b.add)
	case FamilyGeometric:
		b = NewCSRBuilder(n)
		streamGeometric(n, geometricDefaultRadius(n), r, b.add)
	case FamilyGrid, FamilyTorus:
		rows, cols := gridDefaultDims(n)
		return lattice(rows, cols, f == FamilyTorus, IntegerWeights(10), r), nil
	case FamilyPowerLaw:
		// streamBarabasiAlbert's edge count: a path over the first
		// m+1 vertices, then m edges for each later vertex.
		const m = 3
		b = NewCSRBuilder(n)
		if n > 0 {
			start := min(m+1, n)
			b.reserve(start - 1 + (n-start)*m)
		}
		streamBarabasiAlbert(n, m, IntegerWeights(100), r, b.add)
	case FamilyHypercube:
		d := hypercubeDefaultDim(n)
		b = NewCSRBuilder(1 << d)
		b.reserve(d * (1 << d) / 2)
		streamHypercube(d, IntegerWeights(10), r, b.add)
	default:
		return nil, fmt.Errorf("graph: unknown family %q", f)
	}
	return b.Build(), nil
}
