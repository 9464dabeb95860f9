package congest

import (
	"math"
	"math/bits"
	"sync"
)

// Typed wire payloads. A Message carries a Payload value instead of an `any`:
// four inline words cover the common O(1)-word messages without boxing, and
// variable-length tails ride in Ext, a []uint64 backed by the simulator's
// payload arena. The Kind tag lets handlers switch instead of type-asserting.
//
// Ownership protocol (copy-on-send):
//
//   - The Ext slice passed to Ctx.Send is BORROWED: Send copies it into an
//     arena chunk before queueing, so callers may reuse their encode buffer
//     (typically Ctx.Ext scratch) immediately — including relaying a received
//     payload verbatim with ctx.Send(child, m.Payload, words).
//   - The Ext slice seen by a receiver in ctx.In() is OWNED BY THE ENGINE and
//     valid only during that step call: the chunk returns to the arena when
//     the inbox is recycled at the end of the round. Handlers that retain
//     tail data must copy it into their own (metered) state.
//   - Broadcast/Convergecast payloads never touch the arena: those primitives
//     are charged analytically and deliver the caller's BroadcastMsg values
//     directly, so their Ext slices stay caller-owned.

// PayloadKind tags the wire format of a Payload. Kinds are scoped to the
// algorithm driving the simulator: a Run or Broadcast only ever observes the
// kinds its own step functions send, so packages declare their own constants
// starting at 1 (0 is the zero Payload, "no payload").
type PayloadKind uint8

// Payload is a typed message body: up to four inline words (W0..W3) plus an
// optional variable-length tail. See the ownership protocol above for who may
// hold Ext when.
type Payload struct {
	Kind           PayloadKind
	W0, W1, W2, W3 uint64
	Ext            []uint64
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

// wordArena recycles Ext chunks through power-of-two size-class free lists.
// get runs inside the parallel step phase (every Ctx.Send of an Ext payload),
// so the lists are mutex-guarded; put runs only on the engine's serial paths
// (inbox recycle, end-of-Run cleanup). Chunks are not zeroed on get: Send
// copies exactly the words it returns, so no stale data is ever observable.
//
// An arena also carries its shard's ring slab: the Sends of the shard that
// owns the arena carve edge-queue rings from it (edgeQueue), unlocked, since
// only that shard's goroutine does.
type wordArena struct {
	mu    sync.Mutex
	free  [maxArenaClass + 1][][]uint64
	rings ringSlab
}

const maxArenaClass = 48 // chunks up to 2^48 words; larger would OOM first

func arenaClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// clone copies src into an arena chunk of exactly len(src) words. A nil or
// empty src clones to nil.
func (a *wordArena) clone(src []uint64) []uint64 {
	n := len(src)
	if n == 0 {
		return nil
	}
	c := arenaClass(n)
	a.mu.Lock()
	list := a.free[c]
	var chunk []uint64
	if k := len(list); k > 0 {
		chunk = list[k-1][:n]
		a.free[c] = list[:k-1]
	}
	a.mu.Unlock()
	if chunk == nil {
		chunk = make([]uint64, n, 1<<c)
	}
	copy(chunk, src)
	return chunk
}

// put returns a chunk obtained from clone to its size-class free list.
func (a *wordArena) put(chunk []uint64) {
	c := cap(chunk)
	if c == 0 || c&(c-1) != 0 {
		return // not an arena chunk; let the GC have it
	}
	cls := bits.Len(uint(c)) - 1
	if cls > maxArenaClass {
		return
	}
	a.mu.Lock()
	a.free[cls] = append(a.free[cls], chunk[:0])
	a.mu.Unlock()
}

// recycleInbox empties v's inbox on a serial path, first harvesting its
// messages' arena chunks and nil-ing each Ext so a chunk can never be
// double-freed. Ext is the only pointer in a Message, so the truncated
// messages need no further zeroing.
func (s *Simulator) recycleInbox(v int32) {
	in := s.inbox[v]
	for i := range in {
		if e := in[i].Payload.Ext; e != nil {
			s.arena.put(e)
			in[i].Payload.Ext = nil
		}
	}
	s.inbox[v] = in[:0]
}

// Ext returns this context's reusable encode buffer, resized to n words. It
// is scratch for building a Payload tail before Send (which copies it); the
// buffer is invalidated by the next Ext call on the same context.
func (c *Ctx) Ext(n int) []uint64 {
	if cap(c.extBuf) < n {
		c.extBuf = make([]uint64, n)
	}
	c.extBuf = c.extBuf[:n]
	return c.extBuf
}
