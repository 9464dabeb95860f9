package graph

import (
	"math"
	"math/bits"
	"sort"
)

// CSR is the graph: an immutable compressed-sparse-row adjacency of one
// flat int32 offset array, one flat int32 neighbor array, and quantized
// edge weights. A CSRBuilder builds it once, and it is then shared
// read-only across the simulator, the construction phases, the centralized
// oracles and the data plane — no per-vertex slice headers, no neighbor
// structs, no pointers for the GC to trace. To edit one, Thaw it.
//
// Weights are stored as uint16 indices into a sorted table of the distinct
// weight values whenever the graph has at most 65536 distinct weights
// (every generator family in this repo is far below that); otherwise a
// plain []float64 fallback is kept. Either way ArcWeight returns the exact
// float64 the edge was added with.
//
// Footprint: 4(n+1) + 4·2m bytes of structure plus 2·2m bytes of weight
// classes — about 12 bytes per undirected edge.
type CSR struct {
	off     []int32   // len n+1; arcs of u are [off[u], off[u+1])
	to      []int32   // len 2m; neighbor of each arc, adjacency order
	wcls    []uint16  // len 2m when the class table is in use
	classes []float64 // sorted distinct weights, indexed by wcls
	w64     []float64 // len 2m fallback when >65536 distinct weights
	m       int
}

// N returns the number of vertices.
func (c *CSR) N() int { return len(c.off) - 1 }

// M returns the number of undirected edges.
func (c *CSR) M() int { return c.m }

// Degree returns the number of arcs leaving u.
func (c *CSR) Degree(u int) int { return int(c.off[u+1] - c.off[u]) }

// NeighborRange returns u's neighbors in adjacency order and the global id
// of u's first arc. The slice aliases the CSR's backing array: read-only.
func (c *CSR) NeighborRange(u int) ([]int32, int) {
	lo := c.off[u]
	return c.to[lo:c.off[u+1]], int(lo)
}

// ArcWeight returns the weight of directed arc a.
func (c *CSR) ArcWeight(a int) float64 {
	if c.w64 != nil {
		return c.w64[a]
	}
	return c.classes[c.wcls[a]]
}

// WeightClasses returns the number of distinct edge weights, or 0 when the
// class table was abandoned for the float64 fallback.
func (c *CSR) WeightClasses() int { return len(c.classes) }

// MemoryBytes returns the resident size of the CSR's flat arrays — the
// number the scale harness reports as the topology's share of the heap.
func (c *CSR) MemoryBytes() int64 {
	b := int64(len(c.off))*4 + int64(len(c.to))*4
	b += int64(len(c.wcls))*2 + int64(len(c.classes))*8 + int64(len(c.w64))*8
	return b
}

// allocWeights sizes the per-arc weight storage for len(c.to) arcs: the
// uint16 classes of wc's ranked table, or the float64 fallback when wc saw
// more than maxWeightClasses distinct weights. It runs after every weight
// was added and before any is stored, so a freeze allocates only the
// representation it keeps. With the class table it returns the class of
// each insertion id.
func (c *CSR) allocWeights(wc *weightClasser) []uint16 {
	if wc.over {
		c.w64 = make([]float64, len(c.to))
		return nil
	}
	var class []uint16
	c.classes, class = wc.rank()
	c.wcls = make([]uint16, len(c.to))
	return class
}

// maxWeightClasses is the number of distinct weights a uint16 class can name.
const maxWeightClasses = 1 << 16

// weightClasser maps each distinct edge weight to its class: its rank among
// the topology's distinct weights in ascending order, which is the index
// ArcWeight reads back through CSR.classes. It is an open-addressed,
// linearly probed table keyed by math.Float64bits. Weights are positive
// and finite, so bit equality is float equality and no key is 0, which
// marks an empty slot. A freeze adds every weight once, keeping the
// insertion id add returns, then ranks the table into an id → class map.
type weightClasser struct {
	slots []classSlot
	shift uint // 64 - log2(len(slots)): a key's home slot is its hash >> shift
	n     int  // distinct weights added
	over  bool // a weight past maxWeightClasses was added; slots stops growing
}

// classSlot is one weight of the classer's table.
type classSlot struct {
	key uint64 // Float64bits of the weight; 0 = empty
	id  uint16 // insertion id
}

func newWeightClasser() *weightClasser {
	wc := &weightClasser{}
	wc.resize(16)
	return wc
}

// slot returns the slot holding key k, or the empty slot where k belongs.
func (wc *weightClasser) slot(k uint64) int {
	mask := len(wc.slots) - 1
	i := int((k * 0x9e3779b97f4a7c15) >> wc.shift) // Fibonacci hashing
	for wc.slots[i].key != 0 && wc.slots[i].key != k {
		i = (i + 1) & mask
	}
	return i
}

// add records w and returns its insertion id, the number of distinct
// weights added before it. Once more than maxWeightClasses distinct weights
// were seen, it marks the classer over and returns 0.
func (wc *weightClasser) add(w float64) uint16 {
	if wc.over {
		return 0
	}
	k := math.Float64bits(w)
	i := wc.slot(k)
	if wc.slots[i].key == k {
		return wc.slots[i].id
	}
	if wc.n == maxWeightClasses {
		wc.over = true
		return 0
	}
	id := uint16(wc.n)
	wc.slots[i] = classSlot{k, id}
	wc.n++
	if 2*wc.n > len(wc.slots) {
		wc.resize(2 * len(wc.slots))
	}
	return id
}

// resize rehashes the weights into a table of size slots, a power of two.
func (wc *weightClasser) resize(size int) {
	old := wc.slots
	wc.slots = make([]classSlot, size)
	wc.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.key != 0 {
			wc.slots[wc.slot(s.key)] = s
		}
	}
}

// rank sorts the distinct weights into the class table it returns, along
// with the class of each insertion id.
func (wc *weightClasser) rank() (classes []float64, class []uint16) {
	classes = make([]float64, 0, wc.n)
	for _, s := range wc.slots {
		if s.key != 0 {
			classes = append(classes, math.Float64frombits(s.key))
		}
	}
	sort.Float64s(classes)
	class = make([]uint16, wc.n)
	for r, w := range classes {
		class[wc.slots[wc.slot(math.Float64bits(w))].id] = uint16(r)
	}
	return classes, class
}
