//lint:simulator
package csrtopo

// Fixture for the compact-topology accessor surface (graph.Topology /
// graph.CSR): handlers that walk NeighborRange and ArcWeight instead of
// Graph.Neighbors. Two contracts are pinned here. For LM002, reading the
// shared CSR arrays is free (they are host-side graph storage, not vertex
// state), but copying adjacency into retained per-vertex state is an
// allocation like any other and must be charged. A received body relayed
// to every CSR neighbor is copied out once, into Ctx.Scratch, which LM002
// leaves alone; keeping it in vertex state is charged like any copy.

import (
	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
)

type st struct {
	nbrs  []int32
	saved []uint64
	byArc map[int]float64
}

// walk only reads the topology: the NeighborRange slice and ArcWeight values
// are shared CSR storage, so nothing here allocates and LM002 stays silent.
func walk(v int, ctx *congest.Ctx, topo graph.Topology, s *st) float64 {
	to, base := topo.NeighborRange(v)
	var sum float64
	for i, u := range to {
		_ = u
		sum += topo.ArcWeight(base + i)
	}
	return sum
}

// retain copies adjacency into per-vertex state and charges the copy: the
// CSR arrays are free to read, the retained copy is vertex memory.
func retain(v int, ctx *congest.Ctx, topo graph.Topology, s *st) {
	to, _ := topo.NeighborRange(v)
	s.nbrs = append(s.nbrs, to...)
	ctx.Mem().Charge(int64(len(to)))
}

// retainUnmetered makes the same copies with no charge in the function:
// every retained shape is flagged exactly as on the Graph path.
func retainUnmetered(v int, ctx *congest.Ctx, topo graph.Topology, s *st) {
	to, base := topo.NeighborRange(v)
	s.nbrs = append(s.nbrs, to...)       // want `append allocates`
	s.byArc[base] = topo.ArcWeight(base) // want `map insert retains state`
	deg := make([]int, topo.Degree(v))   // want `make allocates`
	_ = deg
}

// fanOut relays a received message, body included, to every CSR neighbor:
// the body is copied out into scratch once and Send copies it per neighbor.
// Keeping a copy is vertex memory, charged here.
func fanOut(v int, ctx *congest.Ctx, topo graph.Topology, s *st) {
	in := ctx.In()
	to, _ := topo.NeighborRange(v)
	ctx.Mem().Charge(1) // the kept copy below is vertex memory
	for i := range in {
		body := ctx.Body(&in[i], ctx.Scratch(0))
		for _, u := range to {
			ctx.Send(int(u), in[i].Payload, 1+len(body), body...)
		}
		s.saved = append(s.saved[:0], body...)
	}
}
