package graph

import "math/rand"

// lattice lays out the rows×cols grid, or with wrap the torus, in place: a
// lattice's adjacency has a closed form, so it needs no edge stream, no
// degree count and no scatter. Vertex (i, j) is i·cols + j.
//
// The weights are w's draws in the lattice's stream order: row-major cells,
// each cell's right edge then its down edge; then, for the torus, the row
// wraps {(i,0),(i,cols-1)} by i and the column wraps {(0,j),(rows-1,j)} by
// j. A wrap exists only along a dimension longer than 2, where it is not a
// grid edge already. Each vertex's arcs come in the order a CSRBuilder fed
// that stream gives them (up, left, right, down, row wrap, column wrap), so
// the CSR equals the builder's bit for bit.
//
// Transient memory is one uint16 weight id per edge. Past maxWeightClasses
// distinct weights the ids drawn so far are converted to one float64 per
// edge, and the CSR keeps the float64 fallback.
func lattice(rows, cols int, wrap bool, w WeightFunc, r *rand.Rand) *CSR {
	if rows <= 0 || cols <= 0 { // no edges, and max(rows·cols, 0) vertices
		return &CSR{off: make([]int32, max(rows*cols, 0)+1)}
	}
	l := latticeShape{rows: rows, cols: cols, rowWrap: -1, colWrap: -1}
	m := rows*(cols-1) + (rows-1)*cols
	if wrap && cols > 2 {
		l.rowWrap, m = m, m+rows
	}
	if wrap && rows > 2 {
		l.colWrap, m = m, m+cols
	}

	wc := newWeightClasser()
	ids := make([]uint16, m)
	var ws []float64 // every edge's weight, once wc is over
	for e := range m {
		x := w(r)
		if ws == nil {
			if ids[e] = wc.add(x); !wc.over {
				continue
			}
			ws = make([]float64, m)
			byID := wc.byID()
			for k, id := range ids[:e] {
				ws[k] = byID[id]
			}
		}
		ws[e] = x
	}

	c := &CSR{off: make([]int32, rows*cols+1), to: make([]int32, 2*m), m: m}
	class := c.allocWeights(wc)
	if ws != nil {
		layArcs(l, c, ws, c.w64)
		return c
	}
	for e, id := range ids {
		ids[e] = class[id]
	}
	layArcs(l, c, ids, c.wcls)
	return c
}

// latticeShape is a lattice's dimensions and the edge index of its first
// row wrap and first column wrap, -1 where it has none.
type latticeShape struct {
	rows, cols       int
	rowWrap, colWrap int
}

// layArcs writes c's offsets and neighbours in one pass over the vertices,
// and gives each arc its edge's weight: out[a] = wt[e] for arc a of edge e.
// Row i's grid edges start at edge s: before the last row a cell's right
// edge is s+2j and its down edge s+2j+1, but the last column has only its
// down edge, s+2j; the last row has only right edges, s+j.
func layArcs[W uint16 | float64](l latticeShape, c *CSR, wt, out []W) {
	rows, cols := l.rows, l.cols
	rowEdges := 2*cols - 1 // grid edges a row emits, but the last row's
	off, to := c.off, c.to
	a := 0
	arc := func(v, e int) {
		to[a], out[a] = int32(v), wt[e]
		a++
	}
	for i := range rows {
		s, step := i*rowEdges, 2
		if i == rows-1 {
			step = 1
		}
		for j := range cols {
			u := i*cols + j
			down := min(2*j+1, rowEdges-1)
			off[u] = int32(a)
			if i > 0 {
				arc(u-cols, s-rowEdges+down)
			}
			if j > 0 {
				arc(u-1, s+step*(j-1))
			}
			if j < cols-1 {
				arc(u+1, s+step*j)
			}
			if i < rows-1 {
				arc(u+cols, s+down)
			}
			if l.rowWrap >= 0 && (j == 0 || j == cols-1) {
				arc(i*cols+cols-1-j, l.rowWrap+i)
			}
			if l.colWrap >= 0 && (i == 0 || i == rows-1) {
				arc((rows-1-i)*cols+j, l.colWrap+j)
			}
		}
	}
	off[rows*cols] = int32(a)
}
