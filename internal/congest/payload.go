package congest

import "math"

// Typed wire payloads. A Message carries a Payload value instead of an `any`:
// four inline words cover the paper's O(1)-word messages without boxing, and
// the Kind tag lets handlers switch instead of type-asserting. The few
// messages that outgrow four words (the light-edge lists of Algorithms 2-3)
// carry a body, a word slice passed to Ctx.Send after the word count.
//
// Bodies are copied, never shared:
//
//   - Send copies the body into continuation slots of the edge's ring right
//     after the message's head slot, so the caller may reuse its buffer
//     (typically Ctx.Scratch) at once.
//   - Delivery copies the body into a buffer of the destination's delivery
//     shard, and a handler reads it only by copying it out again with
//     Ctx.Body. No slice the engine owns ever reaches a handler, so what a
//     handler keeps is its own (and charged to its meter).
//   - Broadcast and Convergecast bodies are the caller's BroadcastMsg.Body:
//     those primitives are charged analytically and hand the caller's
//     messages to the handlers directly.

// PayloadKind tags the wire format of a Payload. Kinds are scoped to the
// algorithm driving the simulator: a Run or Broadcast only ever observes the
// kinds its own step functions send, so packages declare their own constants
// starting at 1 (0 is the zero Payload, "no payload").
type PayloadKind uint8

// Payload is a message's kind and its four inline words. It holds no
// pointer; a longer message carries its remaining words as a body.
type Payload struct {
	Kind           PayloadKind
	W0, W1, W2, W3 uint64
}

// IntWord encodes a signed integer (vertex and edge ids, hop budgets,
// including sentinels like graph.NoVertex) as a wire word.
func IntWord(v int) uint64 { return uint64(int64(v)) }

// WordInt decodes an IntWord.
func WordInt(w uint64) int { return int(int64(w)) }

// FloatWord encodes a float64 (distances, weights) exactly as a wire word.
func FloatWord(f float64) uint64 { return math.Float64bits(f) }

// WordFloat decodes a FloatWord.
func WordFloat(w uint64) float64 { return math.Float64frombits(w) }

// BoolWord encodes a flag as a wire word.
func BoolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// WordBool decodes a BoolWord.
func WordBool(w uint64) bool { return w != 0 }

// Scratch returns this context's reusable buffer, resized to n words: room
// to encode a body before Send (which copies it) or to copy one out with
// Body. The buffer is invalidated by the next Scratch call on the same
// context.
func (c *Ctx) Scratch(n int) []uint64 {
	if cap(c.scratch) < n {
		c.scratch = make([]uint64, n)
	}
	c.scratch = c.scratch[:n]
	return c.scratch
}

// Body appends the body of m, a message of this step's In(), to dst and
// returns the extended slice. Bodies are only ever read this way: the words
// land in memory the caller owns.
func (c *Ctx) Body(m *Message, dst []uint64) []uint64 {
	if m.bodyLen == 0 {
		return dst
	}
	b := c.sim.shardBody[c.v/c.sim.shardBlock]
	return append(dst, b[m.bodyAt:m.bodyAt+m.bodyLen]...)
}
