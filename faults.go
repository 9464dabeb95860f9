package lowmemroute

import (
	"lowmemroute/internal/faults"
)

// Forever, as a CrashWindow or PartitionWindow Until, marks a window that
// never closes.
const Forever = faults.Forever

// CrashWindow schedules a node failure: node Vertex receives and sends
// nothing while the window [From, Until) covers the global round clock.
// Until = Forever is crash-stop; a finite Until is crash-recover (traffic
// queued at live neighbors is delivered after the node returns).
type CrashWindow = faults.Crash

// PartitionWindow schedules a network partition: while the window covers the
// global round clock, no message crosses between Members and the rest of the
// network.
type PartitionWindow = faults.Partition

// FaultPlan is a deterministic, seed-driven fault schedule for the simulated
// network. All link faults are decided by stateless hashes of (Seed, link,
// message sequence), so equal seeds reproduce the exact same fault pattern
// regardless of worker count, and a zero plan is exactly the clean run.
type FaultPlan = faults.Plan

// ParseFaultSpec parses the routebench -faults mini-language, e.g.
// "drop=0.05,delay=2,dup=0.01,seed=7,crash=3,17,part=0,1,2". Crash and
// partition members accept v@from-until windows, and v@from- for a window
// that never ends. FaultPlan.String renders a plan back in it.
func ParseFaultSpec(spec string) (*FaultPlan, error) { return faults.ParseSpec(spec) }

// FaultReport aggregates what a fault plan did to a run. Dropped = Retried +
// Lost always holds; Discarded counts deliveries suppressed by crashes and
// partitions rather than by loss.
type FaultReport = faults.Counters

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
