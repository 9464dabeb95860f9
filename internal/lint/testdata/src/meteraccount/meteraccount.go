//lint:simulator
package meteraccount

import (
	"lowmemroute/internal/congest"
	"lowmemroute/internal/obs"
)

type st struct {
	buf  []int
	seen map[int]bool
}

func good(v int, ctx *congest.Ctx, s *st) {
	s.buf = append(s.buf, v)
	ctx.Mem().Charge(1)
}

func bad(v int, ctx *congest.Ctx, s *st) {
	s.buf = append(s.buf, v) // want `append allocates`
	s.seen[v] = true         // want `map insert retains state`
}

func waived(v int, ctx *congest.Ctx, s *st) {
	//lint:waive meteraccount scratch cleared every round, charged at commit
	s.buf = append(s.buf, v)
}

func maker(v int, ctx *congest.Ctx) map[int]int {
	m := make(map[int]int) // want `make allocates`
	lit := []int{v}        // want `composite literal allocates`
	_ = lit
	return m
}

const extWords = 2

// Appends into Ctx.Scratch are message words once Send copies them, not
// vertex memory: exempt from LM002, including through re-slicing.
func extScratch(v int, ctx *congest.Ctx, s *st) {
	body := ctx.Scratch(extWords)
	body = append(body[:0], congest.IntWord(v))
	body = append(body, congest.IntWord(v+1))
	ctx.Send(v, congest.Payload{Kind: 1}, 1+len(body), body...)
	s.buf = append(s.buf, v) // want `append allocates`
}

type bodySt struct {
	kept []uint64
}

// Ctx.Body appends a received body to its second argument: into
// Ctx.Scratch it is exempt like any scratch append, into retained state it
// is an allocation that must be charged.
func bodies(v int, ctx *congest.Ctx, s *bodySt) {
	in := ctx.In()
	for i := range in {
		body := ctx.Body(&in[i], ctx.Scratch(0))
		ctx.Send(v, in[i].Payload, 1+len(body), body...)
		s.kept = ctx.Body(&in[i], s.kept) // want `Ctx.Body appends`
		fresh := ctx.Body(&in[i], nil)    // want `Ctx.Body appends`
		_ = fresh
	}
}

type faultSt struct {
	sizeSeen  [][]bool
	lightSeen []bool
	dupSeen   map[int]bool
}

// Buffers with the "Seen" suffix are the fault layer's duplicate-suppression
// state (receiver-side dedup for the retry protocol): exempt from LM002,
// through indexing and re-slicing, but the exemption must not leak to
// neighboring allocations.
func seenBuffers(v int, ctx *congest.Ctx, s *faultSt) {
	s.sizeSeen[v] = make([]bool, 4)
	s.lightSeen = append(s.lightSeen[:0], true)
	s.dupSeen[v] = true
	roundSeen := make([]bool, 4)
	_ = roundSeen
	plain := make([]bool, 4) // want `make allocates`
	_ = plain
}

// Allocations inside the argument span of a call into the obs metrics
// package are host-side observability plumbing (snapshot values, metric
// names), not per-vertex algorithm state: exempt from LM002, whether the
// call is a method on an obs type or package-qualified. The exemption is
// scoped to the argument list and must not leak to neighbouring code.
func obsCalls(v int, ctx *congest.Ctx, g *obs.Gauge, reg *obs.Registry, s *st) {
	g.Set(int64(len([]int{v, v})))
	reg.Gauge(string(append([]byte("depth_"), byte(v)))).Set(int64(v))
	reg.SetHelp(string([]byte{byte(v)}), string([]byte{byte(v), byte(v)}))
	spill := []int{v} // want `composite literal allocates`
	_ = spill
}

type growth struct {
	log     []int
	handler func(v int, d *congest.Delivery)
}

func newGrowth() *growth {
	g := &growth{}
	g.handler = g.onMsg
	return g
}

func (g *growth) broadcast(sim *congest.Simulator) { sim.Broadcast(nil, g.handler) }

// A Broadcast handler bound as a method value and stored in a struct field
// reaches Broadcast through no literal or named argument: its
// *congest.Delivery parameter alone makes it a handler.
func (g *growth) onMsg(v int, d *congest.Delivery) {
	g.log = append(g.log, v) // want `append allocates`
}
