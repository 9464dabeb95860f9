package graph

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// latticeParallelMin is the lattice layout's fork/join crossover, in edges:
// from this many on, and with GOMAXPROCS > 1, lattice lays out the
// topology on a second goroutine while the caller draws the weights.
// Below it, spawning, waking and joining the helper costs more than it
// saves (DESIGN.md §15, BenchmarkGenerateCSRGrid at -cpu 1,2).
const latticeParallelMin = 1 << 14

// latticeBlock is how many rows each goroutine of a parallel layout claims
// at a time.
const latticeBlock = 8

// lattice lays out the rows×cols grid, or with wrap the torus, in place: a
// lattice's adjacency has a closed form, so it needs no edge stream, no
// degree count and no scatter. Vertex (i, j) is i·cols + j.
//
// The weights are integers drawn uniformly from {1, ..., wmax} in the
// lattice's stream order: row-major cells, each cell's right edge then its
// down edge; then, for the torus, the row wraps {(i,0),(i,cols-1)} by i and
// the column wraps {(0,j),(rows-1,j)} by j. A wrap exists only along a
// dimension longer than 2, where it is not a grid edge already. Each
// vertex's arcs come in the order a CSRBuilder fed that stream gives them
// (up, left, right, down, row wrap, column wrap), so the CSR equals the
// builder's bit for bit: with wmax 1 a builder fed UnitWeights, else one
// fed IntegerWeights(wmax). A wmax below 1 is taken as 1 and one above
// maxWeightClasses as maxWeightClasses, so every weight has a uint16 class.
//
// Transient memory is one uint16 weight class per edge.
//
// From latticeParallelMin edges on, with GOMAXPROCS > 1, the topology
// is laid out on a helper goroutine while the calling goroutine draws the
// weights, which must happen in order on the one rand.Rand: the helper
// allocates off and to and writes them, the caller allocates wcls and
// draws. Once the weights are drawn, the caller and a second goroutine
// write them, and the caller then helps with whatever topology is left.
// Each takes blocks of latticeBlock rows in turn, so a goroutine that
// starts late or runs slow takes fewer. Every goroutine is joined before
// lattice returns.
func lattice(rows, cols int, wrap bool, wmax int, r *rand.Rand) *CSR {
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
	c := &CSR{m: m}
	if m < latticeParallelMin || runtime.GOMAXPROCS(0) == 1 {
		cls := c.drawClasses(m, wmax, r)
		c.off, c.to, c.wcls = make([]int32, rows*cols+1), make([]int32, 2*m), make([]uint16, 2*m)
		layArcs(l, c.off, c.to, 0, rows, cls, c.wcls)
		return c
	}

	var topoNext, weighNext atomic.Int64 // each pass's first unclaimed row
	layTopo := func(r0, r1 int) { layArcs(l, c.off, c.to, r0, r1, nil, nil) }
	var laid, done sync.WaitGroup
	laid.Add(1)
	done.Add(2)
	go func() {
		defer done.Done()
		c.off, c.to = make([]int32, rows*cols+1), make([]int32, 2*m)
		laid.Done()
		claimRows(&topoNext, rows, layTopo)
	}()
	c.wcls = make([]uint16, 2*m)
	cls := c.drawClasses(m, wmax, r)
	weigh := func(r0, r1 int) { layArcs(l, nil, nil, r0, r1, cls, c.wcls) }
	go func() {
		defer done.Done()
		claimRows(&weighNext, rows, weigh)
	}()
	claimRows(&weighNext, rows, weigh)
	laid.Wait()
	claimRows(&topoNext, rows, layTopo)
	done.Wait()
	return c
}

// claimRows runs f on [0, rows) in blocks of latticeBlock rows, claiming
// each from next, until none is left. Goroutines that share next share the
// rows.
func claimRows(next *atomic.Int64, rows int, f func(r0, r1 int)) {
	for {
		r0 := int(next.Add(latticeBlock)) - latticeBlock
		if r0 >= rows {
			return
		}
		f(r0, min(r0+latticeBlock, rows))
	}
}

// drawClasses draws the lattice's m weights in stream order, sets
// c.classes, and returns each edge's class. A draw is what IntegerWeights'
// r.Intn(wmax) draws, math/rand's Int31n inlined: one Int63, drawn again
// while its top 31 bits fall in the last, partial run of wmax values, and
// those bits mod wmax are the weight less 1. The classes are the values
// that came up, in ascending order, so the values need renumbering only
// when some value in [0, wmax) did not. With wmax 1 nothing is drawn.
func (c *CSR) drawClasses(m, wmax int, r *rand.Rand) []uint16 {
	wmax = min(max(wmax, 1), maxWeightClasses)
	cls := make([]uint16, m)
	seen := make([]bool, wmax)
	if wmax == 1 {
		seen[0] = m > 0
	} else {
		n := int32(wmax)
		top := int32(1<<31 - 1 - (1<<31)%uint32(n))
		for e := range cls {
			v := int32(r.Int63() >> 32)
			for v > top {
				v = int32(r.Int63() >> 32)
			}
			cls[e] = uint16(v % n)
			seen[cls[e]] = true
		}
	}
	rank := make([]uint16, wmax)
	c.classes = make([]float64, 0, wmax)
	for v, ok := range seen {
		if ok {
			rank[v] = uint16(len(c.classes))
			c.classes = append(c.classes, float64(v+1))
		}
	}
	if len(c.classes) < wmax {
		for e, v := range cls {
			cls[e] = rank[v]
		}
	}
	return cls
}

// latticeShape is a lattice's dimensions and the edge index of its first
// row wrap and first column wrap, -1 where it has none.
type latticeShape struct {
	rows, cols       int
	rowWrap, colWrap int
}

// rowStart returns the index of row i's first arc, for 0 ≤ i < rows. Every
// row before row i has a full row's arcs (left, right, up, down and row
// wraps), except that row 0 has no up arcs; it has its column wraps instead
// where there are any.
func (l latticeShape) rowStart(i int) int {
	if i == 0 {
		return 0
	}
	row := 4*l.cols - 2
	if l.rowWrap >= 0 {
		row += 2
	}
	a := i*row - l.cols
	if l.colWrap >= 0 {
		a += l.cols
	}
	return a
}

// layArcs walks rows [r0, r1) vertex by vertex and arc by arc, from arc
// rowStart(r0). With to non-nil it writes the offsets and neighbours; with
// out non-nil it gives each arc its edge's weight, out[a] = wt[e] for arc a
// of edge e. Row i's grid edges start at edge s: before the last row a
// cell's right edge is s+2j and its down edge s+2j+1, but the last column
// has only its down edge, s+2j; the last row has only right edges, s+j.
func layArcs(l latticeShape, off, to []int32, r0, r1 int, wt, out []uint16) {
	rows, cols := l.rows, l.cols
	rowEdges := 2*cols - 1 // grid edges a row emits, but the last row's
	a := l.rowStart(r0)
	arc := func(v, e int) {
		if to != nil {
			to[a] = int32(v)
		}
		if out != nil {
			out[a] = wt[e]
		}
		a++
	}
	for i := r0; i < r1; i++ {
		s, step := i*rowEdges, 2
		if i == rows-1 {
			step = 1
		}
		for j := range cols {
			u := i*cols + j
			down := min(2*j+1, rowEdges-1)
			if to != nil {
				off[u] = int32(a)
			}
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
	if to != nil && r1 == rows {
		off[rows*cols] = int32(a)
	}
}
