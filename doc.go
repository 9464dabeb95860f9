// Package lowmemroute is a Go implementation of "Near-Optimal Distributed
// Routing with Low Memory" (Elkin & Neiman, PODC 2018): compact routing
// schemes for weighted networks whose distributed construction needs only
// Õ(n^{1/k}) words of memory per node, with routing tables of Õ(n^{1/k})
// words, labels of O(k log n) words, and stretch 4k-3+o(1); plus the
// paper's exact tree-routing scheme with O(1)-word tables, O(log n)-word
// labels and O(log n)-word construction memory.
//
// # Facade
//
// The package exposes a small facade over the full machinery:
//
//	net := lowmemroute.NewNetwork(4)
//	net.MustAddLink(0, 1, 1.0)
//	net.MustAddLink(1, 2, 2.0)
//	net.MustAddLink(2, 3, 1.0)
//	net.MustAddLink(3, 0, 5.0)
//	scheme, err := lowmemroute.Build(net, lowmemroute.Config{K: 2})
//	path, err := scheme.Route(0, 2)
//
// Build runs the complete distributed construction on a simulated CONGEST
// network (one processor per node, synchronous rounds, O(1)-word messages
// per edge per round) and reports the construction cost - rounds, messages,
// and per-node peak memory - alongside the scheme. Exact tree routing on a
// spanning tree (or any tree embedded in the network) is available through
// BuildTree. Every build is deterministic: equal (Network, Config) inputs
// produce bit-identical schemes and cost reports regardless of how many
// worker goroutines the simulator uses. The same invariant is what makes
// the simulator's sharded parallel executor safe — each round's work is
// partitioned across P shard goroutines with a deterministic cross-shard
// merge, so P changes wall-clock time and nothing else — and what makes
// long builds checkpointable: at every phase boundary, engine and builder
// state serialize to a canonical schema-versioned snapshot
// (lowmemroute.ckpt/v1) that a later process resumes bit-for-bit, even at
// a different shard count. See
// DESIGN.md section 15.
//
// # Fault injection
//
// The simulated network is reliable by default. Config.Faults installs a
// FaultPlan - a deterministic, seed-driven schedule of per-link message
// drops, delays and duplicates, crash-stop and crash-recover node failures,
// and timed network partitions - and the same construction then runs over
// the faulty network:
//
//	plan, err := lowmemroute.ParseFaultSpec("drop=0.05,delay=2,seed=7")
//	scheme, err := lowmemroute.Build(net, lowmemroute.Config{K: 2, Faults: plan})
//	fmt.Println(scheme.Report().Faults.Lost) // messages lost after retries
//
// Fault decisions are stateless hashes of (seed, link, message sequence),
// so equal seeds reproduce the exact same fault pattern at any worker
// count, and a nil or zero plan is byte-for-byte the clean run. Dropped
// transmissions are retransmitted under a bounded budget (retries are
// charged to the message and bandwidth meters), crashed nodes hold their
// neighbors' traffic until recovery or discard it forever, and the
// protocols degrade gracefully: a build under faults may cost more rounds
// and choose different-but-valid routes, but it still covers every
// reachable pair. The report's Faults field aggregates what the plan did;
// see ExampleBuild_faults and DESIGN.md section 11 for the full model.
//
// After construction, PacketNetwork simulates the forwarding plane and
// exposes runtime failures directly: Crash(v) drops a node mid-flight,
// Recover(v) brings it back, and in-flight packets reroute over fallback
// cluster trees (arriving with Path.Degraded set) or crank back toward
// their source instead of blackholing.
//
// # Internal layout
//
// The deeper layers live under internal/: the CONGEST simulator
// (internal/congest) with its zero-allocation round engine, the fault
// model it consults at delivery time (internal/faults), graph algorithms
// and generators (internal/graph), hopsets with path recovery
// (internal/hopset), tree routing (internal/treeroute), the paper's
// general-graph scheme (internal/core), degraded-mode packet forwarding
// (internal/router), the centralized Thorup-Zwick reference (internal/tz),
// prior-work baselines (internal/baseline), construction tracing and
// telemetry (internal/trace), the evaluation harness (internal/metrics),
// and the model-invariant static analyzers (internal/lint).
//
// # Commands
//
// Three CLIs drive the harness: cmd/routebench regenerates the paper's
// Table 1 (and, with -faults, its degradation under a fault plan;
// -strict turns routing failures into a non-zero exit; in -scale and
// -scale-probe modes, -shards sets the parallel shard count, and in -scale
// mode -checkpoint/-resume snapshot and restore long builds), cmd/treebench
// regenerates Table 2, and cmd/routedemo builds a scheme and routes
// sample pairs end to end. cmd/lowmemlint runs the static analyzers.
package lowmemroute
