//lint:simulator
package kindconformance

import "lowmemroute/internal/congest"

const (
	kindPing congest.PayloadKind = iota + 1 // sent and matched: clean
	kindPong                                // sent but never matched
	kindIdle                                // want `kind kindIdle is declared but never sent or matched \(dead kind\)`
	kindAck                                 // matched but never sent
	kindBeat                                // broadcast kind, matched by its broadcast handler: clean
	kindTick                                // sent point-to-point, matched only on a broadcast Delivery
)

func use(int) {}

func process(ctx *congest.Ctx, v int) {
	if v == 0 {
		ctx.Send(v+1, congest.Payload{Kind: kindPing, W0: congest.IntWord(v)}, 2)
		ctx.Send(v+1, congest.Payload{Kind: kindPong, W0: congest.IntWord(v)}, 2) // want `kind kindPong is sent here \(send\) but no handler matches it`
	}
	in := ctx.In()
	for i := range in {
		p := &in[i].Payload
		switch p.Kind { // want `kind switch is not exhaustive over the kinds sent in process and has no default: missing kindPong`
		case kindPing:
			use(congest.WordInt(p.W0))
		case kindAck: // want `kind kindAck is matched here but never sent over a compatible transport \(dead arm\)`
			use(congest.WordInt(p.W0))
		}
	}
}

// relay resolves the forwarded payload's kind through the != guard: the
// cross-function half of the kindPing flow (sent in process, matched and
// re-sent here).
func relay(ctx *congest.Ctx, v int) {
	in := ctx.In()
	for i := range in {
		p := &in[i].Payload
		if p.Kind != kindPing {
			continue
		}
		ctx.Send(v, *p, 2)
	}
}

func beat(v int) congest.BroadcastMsg {
	return congest.BroadcastMsg{Origin: v, Payload: congest.Payload{Kind: kindBeat, W0: congest.IntWord(v)}, Words: 2}
}

func onBeat(v int, m *congest.BroadcastMsg) {
	p := &m.Payload
	if p.Kind != kindBeat {
		return
	}
	use(congest.WordInt(p.W0))
	_ = v
}

func tick(ctx *congest.Ctx, v int) {
	ctx.Send(v+1, congest.Payload{Kind: kindTick, W0: congest.IntWord(v)}, 2) // want `kind kindTick is sent here \(send\) but no handler matches it`
}

// onTick reads its messages through Delivery.At, whose results are broadcast
// messages: its match cannot observe tick's point-to-point send.
func onTick(v int, d *congest.Delivery) {
	for j := 0; j < d.Len(); j++ {
		m := d.At(j)
		if m == nil {
			continue
		}
		p := &m.Payload
		if p.Kind != kindTick { // want `kind kindTick is matched here but never sent over a compatible transport \(dead arm\)`
			continue
		}
		use(congest.WordInt(p.W0) + v)
	}
}

// sendOpaque forwards a caller-constructed payload; the kind cannot be
// resolved statically, so the warning is acknowledged with a waiver.
func sendOpaque(ctx *congest.Ctx, v int, p congest.Payload) {
	//lint:waive kindconformance caller-constructed payload, kind checked upstream
	ctx.Send(v, p, 2)
}

// Phases of one builder: each Run's step function receives only the
// messages its own Run sent, so a kind must be matched by code its step
// function reaches. kindRoot and kindSize are both matched somewhere, which
// is not enough.
const (
	kindRoot congest.PayloadKind = iota + 16 // local-roots flood
	kindSize                                 // sizes-down report
	kindDist                                 // explorer: sent by forward, matched by step
)

type builder struct{}

func (b *builder) runPhase(step congest.StepFunc) { _ = step }

func (b *builder) phaseLocalRoots() {
	b.runPhase(func(v int, ctx *congest.Ctx) {
		ctx.Send(v+1, congest.Payload{Kind: kindRoot, W0: congest.IntWord(v)}, 2)
		in := ctx.In()
		for i := range in {
			p := &in[i].Payload
			if p.Kind != kindRoot {
				continue
			}
			use(congest.WordInt(p.W0))
		}
	})
}

// phaseSizesDown sends the local-roots kind: only phaseLocalRoots' step
// matches it, and this phase's step never reaches that code.
func (b *builder) phaseSizesDown() {
	report := func(v int, ctx *congest.Ctx) {
		ctx.Send(v+1, congest.Payload{Kind: kindSize, W0: congest.IntWord(v)}, 2)
	}
	b.runPhase(func(v int, ctx *congest.Ctx) {
		ctx.Send(v+1, congest.Payload{Kind: kindRoot, W0: congest.IntWord(v)}, 2) // want `kind kindRoot is sent here \(send\) but no handler reachable from its step function matches it`
		report(v, ctx)
		in := ctx.In()
		for i := range in {
			p := &in[i].Payload
			if p.Kind != kindSize {
				continue
			}
			use(congest.WordInt(p.W0))
		}
	})
}

// explorer splits its step the way hopset's does: step matches, forward
// (which step calls) sends. forward is no step function of its own.
type explorer struct{}

func (e *explorer) step(v int, ctx *congest.Ctx) {
	in := ctx.In()
	for i := range in {
		p := &in[i].Payload
		if p.Kind != kindDist {
			continue
		}
		e.forward(congest.WordInt(p.W0), ctx)
	}
}

func (e *explorer) forward(v int, ctx *congest.Ctx) {
	ctx.Send(v+1, congest.Payload{Kind: kindDist, W0: congest.IntWord(v)}, 2)
}
