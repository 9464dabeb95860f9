package lowmemroute

import (
	"lowmemroute/internal/faults"
)

// Forever, as a CrashWindow or PartitionWindow Until, marks a window that
// never closes.
const Forever = faults.Forever

// CrashWindow schedules a node failure: the node receives and sends nothing
// while the window [From, Until) covers the global round clock. Until =
// Forever is crash-stop; a finite Until is crash-recover (traffic queued at
// live neighbors is delivered after the node returns).
type CrashWindow struct {
	Node        int
	From, Until int64
}

// PartitionWindow schedules a network partition: while the window covers the
// global round clock, no message crosses between Members and the rest of the
// network.
type PartitionWindow struct {
	Members     []int
	From, Until int64
}

// FaultPlan is a deterministic, seed-driven fault schedule for the simulated
// network. All link faults are decided by stateless hashes of (Seed, link,
// message sequence), so equal seeds reproduce the exact same fault pattern
// regardless of worker count, and a zero plan is exactly the clean run.
type FaultPlan struct {
	// Seed drives every probabilistic fault decision.
	Seed uint64
	// Drop is the per-transmission loss probability; dropped transmissions
	// are retransmitted up to RetryBudget times, then counted Lost.
	Drop float64
	// Delay is the maximum extra rounds a delivery may be held; each
	// message's hold is drawn uniformly from [0, Delay].
	Delay int
	// Duplicate is the probability a delivered message arrives twice.
	Duplicate float64
	// RetryBudget caps retransmissions per message (0 selects the default,
	// negative means no retries).
	RetryBudget int
	// Crashes and Partitions schedule vertex and connectivity failures on
	// the simulator's global round clock.
	Crashes    []CrashWindow
	Partitions []PartitionWindow
}

// ParseFaultSpec parses the routebench -faults mini-language, e.g.
// "drop=0.05,delay=2,dup=0.01,seed=7,crash=3,17,part=0,1,2". Crash and
// partition members accept v@from-until windows, and v@from- for a window
// that never ends.
func ParseFaultSpec(spec string) (*FaultPlan, error) {
	p, err := faults.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return publicPlan(p), nil
}

// String renders the plan in ParseFaultSpec's mini-language.
func (p *FaultPlan) String() string { return p.internal().String() }

// internal converts the public plan to the engine's representation; a nil
// receiver converts to nil (no faults).
func (p *FaultPlan) internal() *faults.Plan {
	if p == nil {
		return nil
	}
	ip := &faults.Plan{
		Seed:        p.Seed,
		Drop:        p.Drop,
		Delay:       p.Delay,
		Duplicate:   p.Duplicate,
		RetryBudget: p.RetryBudget,
	}
	for _, c := range p.Crashes {
		ip.Crashes = append(ip.Crashes, faults.Crash{Vertex: c.Node, From: c.From, Until: c.Until})
	}
	for _, w := range p.Partitions {
		ip.Partitions = append(ip.Partitions, faults.Partition{Members: w.Members, From: w.From, Until: w.Until})
	}
	return ip
}

func publicPlan(p *faults.Plan) *FaultPlan {
	if p == nil {
		return nil
	}
	out := &FaultPlan{
		Seed:        p.Seed,
		Drop:        p.Drop,
		Delay:       p.Delay,
		Duplicate:   p.Duplicate,
		RetryBudget: p.RetryBudget,
	}
	for _, c := range p.Crashes {
		out.Crashes = append(out.Crashes, CrashWindow{Node: c.Vertex, From: c.From, Until: c.Until})
	}
	for _, w := range p.Partitions {
		out.Partitions = append(out.Partitions, PartitionWindow{Members: w.Members, From: w.From, Until: w.Until})
	}
	return out
}

// FaultReport aggregates what a fault plan did to a run. Dropped = Retried +
// Lost always holds; Discarded counts deliveries suppressed by crashes and
// partitions rather than by loss.
type FaultReport struct {
	Dropped     int64 // transmissions lost to drop rolls
	Retried     int64 // retransmissions that eventually delivered
	Lost        int64 // messages abandoned after the retry budget
	Duplicated  int64 // extra copies delivered by duplicate rolls
	DelayRounds int64 // total extra rounds injected by delay rolls
	Discarded   int64 // deliveries suppressed by crashes and partitions
	RetryWords  int64 // wire words consumed by retransmissions
}

// Any reports whether the plan affected the run at all.
func (r FaultReport) Any() bool { return r != FaultReport{} }

func publicFaultReport(c faults.Counters) FaultReport {
	return FaultReport{
		Dropped:     c.Dropped,
		Retried:     c.Retried,
		Lost:        c.Lost,
		Duplicated:  c.Duplicated,
		DelayRounds: c.DelayRounds,
		Discarded:   c.Discarded,
		RetryWords:  c.RetryWords,
	}
}

// Crash marks node v of the packet network as failed: packets are no longer
// forwarded into it, packets in flight to it are lost, and packets that
// would route through it are rerouted onto fallback cluster trees (arriving
// with Path.Degraded set) or cranked back toward their source. Safe for
// concurrent use with Send; out-of-range nodes are ignored.
func (p *PacketNetwork) Crash(v int) {
	if v >= 0 && v < len(p.down) {
		p.down[v].Store(true)
	}
}

// Recover brings a crashed node back; forwarding through it resumes
// immediately.
func (p *PacketNetwork) Recover(v int) {
	if v >= 0 && v < len(p.down) {
		p.down[v].Store(false)
	}
}

// Down reports whether node v is currently crashed.
func (p *PacketNetwork) Down(v int) bool {
	return v >= 0 && v < len(p.down) && p.down[v].Load()
}
