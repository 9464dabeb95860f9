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
//
// From latticeParallelMin edges on, with GOMAXPROCS > 1, the work that
// does not depend on the weights runs on a helper goroutine while the
// calling goroutine draws them, which must happen in order on w's one
// rand.Rand: the helper allocates off, to and wcls, touches each page of
// wcls once and writes the topology. Once the weights are drawn, the
// caller and a second goroutine write them, and the caller then helps
// with whatever topology is left. Each takes blocks of latticeBlock rows
// in turn, so a goroutine that starts late or runs slow takes fewer. Every
// goroutine is joined before lattice returns.
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
	c := &CSR{m: m}
	if m < latticeParallelMin || runtime.GOMAXPROCS(0) == 1 {
		wc := newWeightClasser()
		ids, ws := drawLattice(m, w, r, wc)
		c.off, c.to = make([]int32, rows*cols+1), make([]int32, 2*m)
		class := c.allocWeights(wc)
		if ws != nil {
			layArcs(l, c.off, c.to, 0, rows, ws, c.w64)
			return c
		}
		for e, id := range ids {
			ids[e] = class[id]
		}
		layArcs(l, c.off, c.to, 0, rows, ids, c.wcls)
		return c
	}

	var off, to []int32
	var wcls []uint16
	var topoNext, weighNext atomic.Int64 // each pass's first unclaimed row
	layTopo := func(r0, r1 int) { layArcs[uint16](l, off, to, r0, r1, nil, nil) }
	var laid, done sync.WaitGroup
	laid.Add(1)
	done.Add(2)
	go func() {
		defer done.Done()
		off, to, wcls = make([]int32, rows*cols+1), make([]int32, 2*m), make([]uint16, 2*m)
		for a := 0; a < len(wcls); a += 2048 { // one store per 4 KiB page
			wcls[a] = 0
		}
		laid.Done()
		claimRows(&topoNext, rows, layTopo)
	}()
	wc := newWeightClasser()
	ids, ws := drawLattice(m, w, r, wc)
	if ws == nil {
		var class []uint16
		c.classes, class = wc.rank()
		for e, id := range ids {
			ids[e] = class[id]
		}
	}
	laid.Wait()
	c.off, c.to = off, to
	weigh := func(r0, r1 int) { layArcs(l, nil, nil, r0, r1, ids, wcls) }
	if ws != nil {
		c.w64 = make([]float64, 2*m)
		weigh = func(r0, r1 int) { layArcs(l, nil, nil, r0, r1, ws, c.w64) }
	} else {
		c.wcls = wcls
	}
	go func() {
		defer done.Done()
		claimRows(&weighNext, rows, weigh)
	}()
	claimRows(&weighNext, rows, weigh)
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

// drawLattice draws the lattice's m edge weights in stream order and
// classes each through wc: it returns each edge's insertion id, or, once wc
// is over, every edge's float64 weight, the ids drawn before the switch
// converted through wc's table.
func drawLattice(m int, w WeightFunc, r *rand.Rand, wc *weightClasser) (ids []uint16, ws []float64) {
	ids = make([]uint16, m)
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
	return ids, ws
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
func layArcs[W uint16 | float64](l latticeShape, off, to []int32, r0, r1 int, wt, out []W) {
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
