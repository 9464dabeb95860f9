package congest

// Per-vertex broadcast delivery: the handler runs once per vertex, and what
// a vertex reads through Delivery.At - delivered messages, counters, fault
// counters, meter peaks - equals the per-(vertex, message) delivery it
// replaced, clean and under every kind of fault, for handlers that read
// everything while charging and for handlers that read a single message.

import (
	"math/rand"
	"reflect"
	"testing"

	"lowmemroute/internal/faults"
	"lowmemroute/internal/graph"
)

// refBroadcast is the per-(vertex, message) delivery Broadcast used to do:
// handle runs once per delivered pair, vertices ascending and messages in
// order, right after the meter is spiked by the message (and by each of its
// retransmissions). The equivalence tests hold Broadcast to it.
func refBroadcast(s *Simulator, msgs []BroadcastMsg, handle func(v, j int, m *BroadcastMsg)) {
	n := s.N()
	f := s.ensureFaults()
	clock := s.rounds
	var ctr faults.Counters
	var totalWords, extraMsgs, extraWords int64
	maxExtra := 0
	for j := range msgs {
		totalWords += msgs[j].wireWords()
	}
	for v := 0; v < n; v++ {
		for j := range msgs {
			m := &msgs[j]
			w := m.wireWords()
			if f != nil {
				if down, _ := f.Crashed(v, clock); down {
					ctr.Discarded++
					continue
				}
				if down, _ := f.Crashed(m.Origin, clock); down {
					ctr.Discarded++
					continue
				}
				if v != m.Origin {
					if cut, _ := f.CutPair(m.Origin, v, clock); cut {
						ctr.Discarded++
						continue
					}
					attempt, lost := 0, false
					for f.BroadcastDrop(v, j, attempt) {
						ctr.Dropped++
						ctr.RetryWords += w
						extraMsgs++
						extraWords += w
						if attempt >= f.Budget() {
							lost = true
							break
						}
						attempt++
					}
					if lost {
						ctr.Lost++
						continue
					}
					ctr.Retried += int64(attempt)
					maxExtra = max(maxExtra, attempt)
					for a := 0; a < attempt; a++ {
						s.meters[v].Spike(w)
					}
				}
			}
			if handle != nil {
				s.meters[v].Spike(w)
				handle(v, j, m)
			}
		}
	}
	s.rounds += int64(len(msgs)) + 2*int64(s.d) + int64(maxExtra)
	s.messages += int64(len(msgs))*int64(n-1) + extraMsgs
	s.words += totalWords*int64(n-1) + extraWords
	s.faultCtr.Add(ctr)
}

// bcastRun is what one simulator observed over a sequence of broadcasts.
type bcastRun struct {
	Log                   [][2]int // (vertex, message index) reads that returned a message
	Rounds, Msgs, Words   int64
	Faults                faults.Counters
	Peak, Current, Window []int64
}

func observe(s *Simulator, log [][2]int) bcastRun {
	r := bcastRun{Log: log, Rounds: s.Rounds(), Msgs: s.Messages(), Words: s.Words(), Faults: s.FaultCounters()}
	for v := 0; v < s.N(); v++ {
		m := s.Mem(v)
		r.Peak = append(r.Peak, m.Peak())
		r.Current = append(r.Current, m.Current())
		r.Window = append(r.Window, m.SampleWindow())
	}
	return r
}

// bcastMsgs returns a broadcast with uneven sizes (one zero-word message,
// which counts as one) from a few origins.
func bcastMsgs() []BroadcastMsg {
	words := []int{2, 7, 3, 0, 5, 1}
	origins := []int{0, 3, 5, 3, 9, 14}
	msgs := make([]BroadcastMsg, len(words))
	for j := range msgs {
		msgs[j] = BroadcastMsg{Origin: origins[j], Payload: Payload{Kind: 1, W0: IntWord(j)}, Words: words[j]}
	}
	return msgs
}

// charge is the storage a handler keeps after reading message j at v: some
// pairs keep something, so later messages must spike above it.
func charge(v, j int) int64 {
	if (v+j)%3 == 0 {
		return int64(1 + j%2)
	}
	return 0
}

func TestBroadcastMatchesPerPairDelivery(t *testing.T) {
	g := graph.Torus(4, 4, 1, rand.New(rand.NewSource(2)))
	plans := map[string]*faults.Plan{
		"clean":     nil,
		"drop":      {Seed: 8, Drop: 0.3},
		"lossy":     {Seed: 3, Drop: 0.6, RetryBudget: 1},
		"crash":     {Crashes: []faults.Crash{{Vertex: 5, From: 0, Until: 1000}, {Vertex: 3, From: 0, Until: 1000}}},
		"late":      {Crashes: []faults.Crash{{Vertex: 7, From: 40, Until: 1000}}},
		"partition": {Seed: 1, Drop: 0.1, Partitions: []faults.Partition{{Members: []int{0, 1, 2, 9}, From: 0, Until: 1000}}},
	}
	// Each reader is run per vertex by Broadcast and per pair by the
	// reference; both must log the same reads and charge the same storage.
	type reader struct {
		perVertex func(log *[][2]int, s *Simulator) func(v int, d *Delivery)
		perPair   func(log *[][2]int, s *Simulator) func(v, j int, m *BroadcastMsg)
	}
	readers := map[string]reader{
		"nil": {
			func(*[][2]int, *Simulator) func(int, *Delivery) { return nil },
			func(*[][2]int, *Simulator) func(int, int, *BroadcastMsg) { return nil },
		},
		"all-charging": {
			func(log *[][2]int, s *Simulator) func(int, *Delivery) {
				return func(v int, d *Delivery) {
					for j := 0; j < d.Len(); j++ {
						if m := d.At(j); m != nil {
							*log = append(*log, [2]int{v, WordInt(m.Payload.W0)})
							s.Mem(v).Charge(charge(v, j))
						}
					}
				}
			},
			func(log *[][2]int, s *Simulator) func(int, int, *BroadcastMsg) {
				return func(v, j int, m *BroadcastMsg) {
					*log = append(*log, [2]int{v, WordInt(m.Payload.W0)})
					s.Mem(v).Charge(charge(v, j))
				}
			},
		},
		"one": { // message v mod 4 of each broadcast (both have at least 4)
			func(log *[][2]int, s *Simulator) func(int, *Delivery) {
				return func(v int, d *Delivery) {
					if j := v % 4; d.At(j) != nil {
						*log = append(*log, [2]int{v, j})
					}
				}
			},
			func(log *[][2]int, s *Simulator) func(int, int, *BroadcastMsg) {
				return func(v, j int, m *BroadcastMsg) {
					if j == v%4 {
						*log = append(*log, [2]int{v, j})
					}
				}
			},
		},
	}
	for pname, plan := range plans {
		for rname, rd := range readers {
			t.Run(pname+"/"+rname, func(t *testing.T) {
				msgs := bcastMsgs()
				got, want := NewTopo(g, WithFaults(plan)), NewTopo(g, WithFaults(plan))
				var gotLog, wantLog [][2]int
				// Two broadcasts of different lengths, so the second reuses
				// the first's scratch; the stored charges carry over.
				for _, batch := range [][]BroadcastMsg{msgs, msgs[:4]} {
					got.Broadcast(batch, rd.perVertex(&gotLog, got))
					refBroadcast(want, batch, rd.perPair(&wantLog, want))
				}
				if a, b := observe(got, gotLog), observe(want, wantLog); !reflect.DeepEqual(a, b) {
					t.Fatalf("per-vertex delivery differs from per-pair delivery:\n got %+v\nwant %+v", a, b)
				}
			})
		}
	}
}

// TestBroadcastHandlerOncePerVertex: the handler runs once per vertex,
// ascending; a vertex that receives nothing (crashed for the whole
// broadcast) is skipped.
func TestBroadcastHandlerOncePerVertex(t *testing.T) {
	g := pathGraph(6)
	var calls []int
	handle := func(v int, d *Delivery) { calls = append(calls, v) }
	NewTopo(g).Broadcast(bcastMsgs()[:3], handle)
	if want := []int{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("clean handler calls %v, want %v", calls, want)
	}
	calls = nil
	s := NewTopo(g, WithFaults(&faults.Plan{Crashes: []faults.Crash{{Vertex: 4, From: 0, Until: 100}}}))
	s.Broadcast(bcastMsgs()[:3], handle)
	if want := []int{0, 1, 2, 3, 5}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("handler calls with vertex 4 down %v, want %v", calls, want)
	}
}

// bcastCounter is a bound-method handler for the allocation test.
type bcastCounter struct{ reads int }

func (c *bcastCounter) handle(v int, d *Delivery) { c.reads += delivered(d) }

func TestBroadcastAllocFree(t *testing.T) {
	g := graph.Torus(4, 4, 1, rand.New(rand.NewSource(2)))
	for name, plan := range map[string]*faults.Plan{"clean": nil, "drop": {Seed: 8, Drop: 0.3}} {
		s := NewTopo(g, WithFaults(plan), WithWorkers(1))
		c := &bcastCounter{}
		fn := c.handle
		msgs := bcastMsgs()
		s.Broadcast(msgs, fn)
		if allocs := testing.AllocsPerRun(20, func() { s.Broadcast(msgs, fn) }); allocs != 0 {
			t.Fatalf("%s: warm Broadcast allocates %v/op, want 0", name, allocs)
		}
	}
}
