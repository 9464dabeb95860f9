package congest

// The bodied-message golden: a flood whose messages carry bodies of 0-9
// words, clean and under every fault class, at one and two shards. Every
// delivered message (its destination, sender, words, kind, inline words and
// body words, per round) and the end-of-run counters are digested, and the
// digests were recorded before message bodies moved into the edge rings, so
// any change in how a body travels, paces, drops, duplicates or is read
// back shows up here.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"lowmemroute/internal/graph"
)

// bodiedFlood runs two flood Runs on one 33×33 torus (past parallelMin, so
// a two-shard run forks both phases). Each round every vertex sends each
// neighbor a message with a body of 0-9 words and relays the first body it
// received, copied out, to its smallest neighbor. It returns the digest of
// everything delivered and of the final engine counters, and the simulator.
func bodiedFlood(workers int, opts ...Option) (string, *Simulator) {
	const floodRounds = 5
	g := graph.Torus(floodSide, floodSide, 1, rand.New(rand.NewSource(5)))
	s := NewTopo(g, append([]Option{WithWorkers(workers)}, opts...)...)
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	h := sha256.New()
	for run := 0; run < 2; run++ {
		logs := make([][]uint64, g.N())
		bodies := make([][]uint64, g.N())
		s.Run(all, 64*floodRounds+64, func(v int, ctx *Ctx) {
			in := ctx.In()
			for i := range in {
				m := &in[i]
				p := &m.Payload
				body := bodyOf(ctx, bodies[v][:0], m)
				bodies[v] = body
				logs[v] = append(logs[v], uint64(ctx.Round()), uint64(v), IntWord(m.From), uint64(m.Words),
					uint64(p.Kind), p.W0, p.W1, p.W2, p.W3, uint64(len(body)))
				logs[v] = append(logs[v], body...)
				if i == 0 && len(body) > 0 && ctx.Round() < floodRounds {
					nb := neighbors(s.Topo(), v)[0]
					sendBody(ctx, int(nb), *p, m.Words, body)
				}
			}
			if ctx.Round() >= floodRounds {
				return
			}
			for _, nb := range neighbors(s.Topo(), v) {
				k := v + 3*int(nb) + 7*ctx.Round() + run
				n := k % 10
				body := make([]uint64, n)
				for j := range body {
					body[j] = uint64(k*16 + j)
				}
				p := Payload{Kind: PayloadKind(1 + k%3), W0: IntWord(v), W1: uint64(k), W2: uint64(ctx.Round()), W3: ^uint64(k)}
				sendBody(ctx, int(nb), p, 1+n+k%3, body)
			}
			ctx.Wake()
		})
		for v := range logs {
			hashWords(h, logs[v])
		}
	}
	ctr := s.FaultCounters()
	hashWords(h, []uint64{uint64(s.Rounds()), uint64(s.Messages()), uint64(s.Words()), uint64(s.PeakMemory()),
		uint64(ctr.Dropped), uint64(ctr.Retried), uint64(ctr.Lost), uint64(ctr.Duplicated),
		uint64(ctr.Discarded), uint64(ctr.DelayRounds), uint64(ctr.RetryWords)})
	return fmt.Sprintf("%x", h.Sum(nil)), s
}

func hashWords(h hash.Hash, ws []uint64) {
	var b [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
}

// TestBodiedMessageGolden pins the bodied flood's digest, clean and under
// floodFaultPlan, at one shard and at two.
func TestBodiedMessageGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
		want string
	}{
		{"clean", nil, "ce7edded96cdcf3831e413d52aaf6ebedba1d90679086cae269bb3b495249e0c"},
		{"faults", []Option{WithFaults(floodFaultPlan())}, "09bd026939b808d5d7b1acea6a9ed67cd824b270684e98ec73f9f60e8fbc197c"},
	} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, workers), func(t *testing.T) {
				got, s := bodiedFlood(workers, tc.opts...)
				if workers > 1 {
					requireForked(t, s, workers)
				}
				if tc.opts != nil && !s.FaultCounters().Any() {
					t.Fatal("the fault plan injected nothing")
				}
				if got != tc.want {
					t.Fatalf("digest %s, want %s", got, tc.want)
				}
			})
		}
	}
}
