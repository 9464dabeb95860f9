// Package faults defines deterministic, seed-driven fault plans for the
// CONGEST simulator: per-link message drop/delay/duplication, crash-stop and
// crash-recover vertex schedules, and partition windows.
//
// A Plan is pure data. Compile freezes it against a vertex count into a
// Compiled oracle the round engine consults at delivery time. Every fault
// decision is a stateless hash of (seed, stream, link, message sequence
// number, attempt) — no shared RNG stream — so decisions are independent of
// worker count and delivery sharding, and two runs with equal seeds produce
// byte-identical traces (the determinism contract of DESIGN.md §11).
//
// The fault clock is the simulator's global round counter, so crash and
// partition windows span construction phases: "vertex 7 is down for rounds
// [100, 250)" means the same thing regardless of which Run or Broadcast is
// executing when round 100 arrives.
package faults

import (
	"fmt"
	"strconv"
	"strings"
)

// DefaultRetryBudget is the per-message retransmission budget when a Plan
// does not set one. With drop probability p, a message is lost only after
// budget+1 consecutive failed attempts (probability p^(budget+1)), so the
// default makes loss negligible for every p the experiments use while still
// bounding worst-case work.
const DefaultRetryBudget = 8

// Forever, as a window's Until, means the fault never clears.
const Forever int64 = -1

// Crash is one vertex's outage window: down for global rounds
// [From, Until). Until == Forever (or any Until <= From except Forever's
// sentinel) never recovers.
type Crash struct {
	Vertex int
	From   int64
	Until  int64
}

// Partition is a network split window: during global rounds [From, Until),
// no message crosses between Members and its complement. Until == Forever
// never heals.
type Partition struct {
	Members []int
	From    int64
	Until   int64
}

// Plan is a declarative fault schedule. The zero value injects nothing.
type Plan struct {
	// Seed drives every probabilistic decision. Equal seeds (and equal
	// plans) reproduce the exact same fault pattern.
	Seed uint64

	// Drop is the per-transmission probability that a message fails to
	// cross its link and must be retransmitted.
	Drop float64

	// Delay is the maximum extra latency of a link delivery: each message
	// is held at the head of its edge queue for a uniform number of rounds
	// in [0, Delay]. Zero disables delay injection.
	Delay int

	// Duplicate is the per-delivery probability that a message is delivered
	// twice. Handlers must tolerate re-delivery (they do; see DESIGN.md §11).
	Duplicate float64

	// RetryBudget caps retransmissions per message; after budget+1 failed
	// attempts the message is counted Lost and discarded. Zero selects
	// DefaultRetryBudget; negative means no retries (drop == loss).
	RetryBudget int

	Crashes    []Crash
	Partitions []Partition
}

// Empty reports whether the plan injects no faults at all.
func (p *Plan) Empty() bool {
	return p == nil || (p.Drop == 0 && p.Delay == 0 && p.Duplicate == 0 &&
		len(p.Crashes) == 0 && len(p.Partitions) == 0)
}

// Counters tallies injected faults and their recovery cost. All fields are
// sums, so per-shard counters merge by addition in any order.
type Counters struct {
	// Dropped transmissions (each one consumed wire bandwidth and triggers
	// a retransmission unless the budget is exhausted).
	Dropped int64
	// Retried is the number of retransmissions performed (Dropped - Lost).
	Retried int64
	// Lost messages: retry budget exhausted, message discarded.
	Lost int64
	// Duplicated deliveries (the extra copy, not the original).
	Duplicated int64
	// DelayRounds is the total extra head-of-line rounds injected.
	DelayRounds int64
	// Discarded messages: destination crashed forever or severed behind a
	// permanent partition, so delivery can never happen.
	Discarded int64
	// RetryWords is the wire cost (words) of all retransmissions.
	RetryWords int64
}

// Add merges o into c.
func (c *Counters) Add(o Counters) {
	c.Dropped += o.Dropped
	c.Retried += o.Retried
	c.Lost += o.Lost
	c.Duplicated += o.Duplicated
	c.DelayRounds += o.DelayRounds
	c.Discarded += o.Discarded
	c.RetryWords += o.RetryWords
}

// Delta returns c - o, field-wise (for per-round deltas of cumulative
// counters).
func (c Counters) Delta(o Counters) Counters {
	return Counters{
		Dropped:     c.Dropped - o.Dropped,
		Retried:     c.Retried - o.Retried,
		Lost:        c.Lost - o.Lost,
		Duplicated:  c.Duplicated - o.Duplicated,
		DelayRounds: c.DelayRounds - o.DelayRounds,
		Discarded:   c.Discarded - o.Discarded,
		RetryWords:  c.RetryWords - o.RetryWords,
	}
}

// Any reports whether any fault fired.
func (c Counters) Any() bool { return c != Counters{} }

// Spike is a deferred meter charge: retransmissions are decided inside the
// sharded delivery phase, where only the destination's meter may be touched;
// the engine collects Spikes per shard and applies them serially.
type Spike struct {
	V     int32
	Words int32
}

// window is a compiled outage interval on the global round clock.
type window struct {
	from, until int64 // until == Forever never clears
}

func (w window) covers(round int64) bool {
	return round >= w.from && (w.until == Forever || round < w.until)
}

func (w window) forever() bool { return w.until == Forever }

// Compiled is a Plan frozen against a vertex count: O(1) per-query oracles
// for the round engine. Read-only after Compile, hence safe to share across
// delivery shards.
type Compiled struct {
	seed      uint64
	drop      float64
	delay     int
	duplicate float64
	budget    int

	crashW [][]window // per vertex; nil for most
	parts  []Partition
	partIn [][]bool // parts[i] membership bitmap
	partW  []window
}

// Compile freezes plan for an n-vertex simulator. A nil or empty plan
// compiles to nil (the engine stays on its zero-overhead path).
func Compile(plan *Plan, n int) *Compiled {
	if plan.Empty() {
		return nil
	}
	c := &Compiled{
		seed:      plan.Seed,
		drop:      plan.Drop,
		delay:     plan.Delay,
		duplicate: plan.Duplicate,
		budget:    plan.RetryBudget,
	}
	if c.budget == 0 {
		c.budget = DefaultRetryBudget
	} else if c.budget < 0 {
		c.budget = 0
	}
	for _, cr := range plan.Crashes {
		if cr.Vertex < 0 || cr.Vertex >= n {
			continue
		}
		if c.crashW == nil {
			c.crashW = make([][]window, n)
		}
		w := window{from: cr.From, until: cr.Until}
		if w.until != Forever && w.until <= w.from {
			w.until = Forever
		}
		c.crashW[cr.Vertex] = append(c.crashW[cr.Vertex], w)
	}
	for _, pt := range plan.Partitions {
		if len(pt.Members) == 0 {
			continue
		}
		in := make([]bool, n)
		any := false
		for _, v := range pt.Members {
			if v >= 0 && v < n {
				in[v] = true
				any = true
			}
		}
		if !any {
			continue
		}
		w := window{from: pt.From, until: pt.Until}
		if w.until != Forever && w.until <= w.from {
			w.until = Forever
		}
		c.parts = append(c.parts, pt)
		c.partIn = append(c.partIn, in)
		c.partW = append(c.partW, w)
	}
	return c
}

// Budget returns the per-message retransmission budget.
func (c *Compiled) Budget() int { return c.budget }

// Crashed reports whether v is down at round, and whether that outage never
// clears (so queued traffic to v can be discarded rather than held).
func (c *Compiled) Crashed(v int, round int64) (down, forever bool) {
	if c.crashW == nil || c.crashW[v] == nil {
		return false, false
	}
	for _, w := range c.crashW[v] {
		if w.covers(round) {
			return true, w.forever()
		}
	}
	return false, false
}

// HasCrashes reports whether any crash window is configured.
func (c *Compiled) HasCrashes() bool { return c.crashW != nil }

// CutPair reports whether a message between u and v is severed by a
// partition at round, and whether that partition never heals.
func (c *Compiled) CutPair(u, v int, round int64) (cut, forever bool) {
	for i := range c.partW {
		if c.partW[i].covers(round) && c.partIn[i][u] != c.partIn[i][v] {
			return true, c.partW[i].forever()
		}
	}
	return false, false
}

// Decision streams keep the drop, delay, duplicate, and broadcast hash
// families statistically independent for one seed.
const (
	streamDrop uint64 = 0xd09f

	streamDelay uint64 = 0xde1a

	streamDup uint64 = 0xd0b1

	streamBcast uint64 = 0xbca5
)

// mix64 is the splitmix64 finalizer: a fast, well-distributed bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// roll hashes a decision coordinate to a uniform value in [0, 1).
func (c *Compiled) roll(stream, link, seq, attempt uint64) float64 {
	h := mix64(c.seed ^ stream*0x9e3779b97f4a7c15)
	h = mix64(h ^ link)
	h = mix64(h ^ seq)
	h = mix64(h ^ attempt)
	return float64(h>>11) / (1 << 53)
}

// DropRoll decides whether transmission `attempt` of the seq-th message on
// directed link `link` is dropped.
func (c *Compiled) DropRoll(link int32, seq uint64, attempt int) bool {
	if c.drop <= 0 {
		return false
	}
	return c.roll(streamDrop, uint64(uint32(link)), seq, uint64(attempt)) < c.drop
}

// DelayRoll returns the extra head-of-line rounds (uniform in [0, Delay])
// injected before the seq-th message on link may deliver.
func (c *Compiled) DelayRoll(link int32, seq uint64) int {
	if c.delay <= 0 {
		return 0
	}
	r := c.roll(streamDelay, uint64(uint32(link)), seq, 0)
	return int(r * float64(c.delay+1))
}

// DupRoll decides whether the seq-th message on link is delivered twice.
func (c *Compiled) DupRoll(link int32, seq uint64) bool {
	if c.duplicate <= 0 {
		return false
	}
	return c.roll(streamDup, uint64(uint32(link)), seq, 0) < c.duplicate
}

// BroadcastDrop decides whether transmission `attempt` of broadcast message
// msg toward vertex v is dropped. Broadcasts ride the BFS tree, not a single
// link, so the coordinate is (v, msg) rather than an edge id.
func (c *Compiled) BroadcastDrop(v, msg, attempt int) bool {
	if c.drop <= 0 {
		return false
	}
	return c.roll(streamBcast, uint64(uint32(v)), uint64(msg), uint64(attempt)) < c.drop
}

// ParseSpec parses the routebench -faults mini-language:
//
//	drop=0.05,delay=2,dup=0.01,seed=7,budget=8,crash=3,17,part=0,1,2
//
// Comma-separated key=value tokens; bare tokens extend the most recent
// crash= or part= list. Crash entries accept an optional @from-until window
// (crash=5@100-200); an empty until never ends (crash=5@100- is down from
// round 100 on), and omitted windows mean "down forever from round 0".
// part= starts one partition group per occurrence, with an optional window
// on its first member (part=0@50-90,1,2 or part=0@50-,1,2).
func ParseSpec(spec string) (*Plan, error) {
	p := &Plan{}
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	mode := "" // which list bare tokens extend
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, hasKey := strings.Cut(tok, "=")
		if !hasKey {
			val = tok
		} else {
			mode = ""
		}
		switch {
		case hasKey && key == "drop":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || !(f >= 0 && f <= 1) { // NaN fails both
				return nil, fmt.Errorf("faults: bad drop probability %q", val)
			}
			p.Drop = f
		case hasKey && key == "delay":
			d, err := strconv.Atoi(val)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faults: bad delay %q", val)
			}
			p.Delay = d
		case hasKey && key == "dup":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || !(f >= 0 && f <= 1) {
				return nil, fmt.Errorf("faults: bad dup probability %q", val)
			}
			p.Duplicate = f
		case hasKey && key == "seed":
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q", val)
			}
			p.Seed = s
		case hasKey && key == "budget":
			b, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("faults: bad budget %q", val)
			}
			p.RetryBudget = b
		case hasKey && key == "crash":
			mode = "crash"
			cr, err := parseCrash(val)
			if err != nil {
				return nil, err
			}
			p.Crashes = append(p.Crashes, cr)
		case hasKey && key == "part":
			mode = "part"
			v, w, err := parseWindowed(val)
			if err != nil {
				return nil, err
			}
			p.Partitions = append(p.Partitions, Partition{
				Members: []int{v}, From: w.from, Until: w.until,
			})
		case !hasKey && mode == "crash":
			cr, err := parseCrash(val)
			if err != nil {
				return nil, err
			}
			p.Crashes = append(p.Crashes, cr)
		case !hasKey && mode == "part":
			v, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("faults: bad partition member %q", val)
			}
			pt := &p.Partitions[len(p.Partitions)-1]
			pt.Members = append(pt.Members, v)
		default:
			return nil, fmt.Errorf("faults: unknown spec token %q", tok)
		}
	}
	return p, nil
}

// parseCrash parses "v", "v@from-until" or "v@from-".
func parseCrash(s string) (Crash, error) {
	v, w, err := parseWindowed(s)
	if err != nil {
		return Crash{}, err
	}
	return Crash{Vertex: v, From: w.from, Until: w.until}, nil
}

// parseWindowed parses "v", "v@from-until" or "v@from-" (until Forever)
// into a vertex and a window (default: down forever from round 0).
func parseWindowed(s string) (int, window, error) {
	vs, ws, hasWin := strings.Cut(s, "@")
	v, err := strconv.Atoi(vs)
	if err != nil {
		return 0, window{}, fmt.Errorf("faults: bad vertex %q", s)
	}
	w := window{from: 0, until: Forever}
	if hasWin {
		fs, us, ok := strings.Cut(ws, "-")
		if !ok {
			return 0, window{}, fmt.Errorf("faults: bad window %q (want from-until)", ws)
		}
		from, err := strconv.ParseInt(fs, 10, 64)
		until := Forever
		if err == nil && us != "" {
			if until, err = strconv.ParseInt(us, 10, 64); err == nil && until <= from {
				err = fmt.Errorf("empty window")
			}
		}
		if err != nil {
			return 0, window{}, fmt.Errorf("faults: bad window %q (want from-until or from-)", ws)
		}
		w = window{from: from, until: until}
	}
	return v, w, nil
}

// String renders a plan back into ParseSpec form (for reports and logs).
func (p *Plan) String() string {
	if p.Empty() {
		return "none"
	}
	var b strings.Builder
	sep := func() {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
	}
	if p.Drop > 0 {
		fmt.Fprintf(&b, "drop=%g", p.Drop)
	}
	if p.Delay > 0 {
		sep()
		fmt.Fprintf(&b, "delay=%d", p.Delay)
	}
	if p.Duplicate > 0 {
		sep()
		fmt.Fprintf(&b, "dup=%g", p.Duplicate)
	}
	if p.Seed != 0 {
		sep()
		fmt.Fprintf(&b, "seed=%d", p.Seed)
	}
	if p.RetryBudget != 0 {
		sep()
		fmt.Fprintf(&b, "budget=%d", p.RetryBudget)
	}
	for _, cr := range p.Crashes {
		sep()
		fmt.Fprintf(&b, "crash=%d%s", cr.Vertex, windowSpec(cr.From, cr.Until))
	}
	for _, pt := range p.Partitions {
		sep()
		b.WriteString("part=")
		for i, v := range pt.Members {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", v)
			if i == 0 {
				b.WriteString(windowSpec(pt.From, pt.Until))
			}
		}
	}
	return b.String()
}

// windowSpec renders the window a crash or partition takes effect over
// (an Until <= From other than Forever never ends, as Compile reads it):
// "" for down forever from round 0, "@from-" for forever from a later
// round, "@from-until" for a closed window.
func windowSpec(from, until int64) string {
	switch {
	case until != Forever && until > from:
		return fmt.Sprintf("@%d-%d", from, until)
	case from > 0:
		return fmt.Sprintf("@%d-", from)
	default:
		return ""
	}
}
