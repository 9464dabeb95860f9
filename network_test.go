package lowmemroute

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"testing"

	"lowmemroute/internal/graph"
)

// topoDigest is the SHA-256 of a topology's N, per-vertex degrees,
// neighbour ids in adjacency order and arc-weight bits.
func topoDigest(t graph.Topology) string {
	h := sha256.New()
	var buf [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	word(uint64(t.N()))
	for u := 0; u < t.N(); u++ {
		to, base := t.NeighborRange(u)
		word(uint64(len(to)))
		for i, v := range to {
			word(uint64(v))
			word(math.Float64bits(t.ArcWeight(base + i)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// grownNetwork is a generated network extended through the builder API: two
// new nodes, links from them into the generated part, and a parallel link.
func grownNetwork(t *testing.T) *Network {
	t.Helper()
	net, err := Generate(ErdosRenyi, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := net.AddNode()
	net.MustAddLink(a, 5, 7)
	net.MustAddLink(10, a, 3)
	b := net.AddNode()
	net.MustAddLink(b, a, 2)
	net.MustAddLink(b, 0, 11)
	net.MustAddLink(0, 1, 2.5) // parallel to the backbone or an ER edge, or new
	return net
}

// TestGeneratedNetworkGrows pins a generated network that was then grown
// link by link: its topology (arc order included) and the Build report over
// it equal the values recorded before a generated network kept its CSR,
// when it was an edge-by-edge builder from the start.
func TestGeneratedNetworkGrows(t *testing.T) {
	net := grownNetwork(t)
	if got, want := topoDigest(net.freeze()), "356feb9fd673d6aba6c5877217498412a5319dd2b61098653275aeecdc1a1698"; got != want {
		t.Errorf("grown topology digest %s, want %s", got, want)
	}
	if net.Nodes() != 66 || net.Links() != 561 {
		t.Errorf("grown network has %d nodes, %d links", net.Nodes(), net.Links())
	}
	s, err := Build(net, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%+v", s.Report()), "{Rounds:4669 Messages:229859 Words:936365 PeakMemory:546 AvgMemory:258.8636363636364 HopDiameter:4 MaxTableWords:190 MaxLabelWords:11 MaxClustersPerNode:38 HopsetEdges:18 HopsetArboricity:3 BetaRealised:2 PhaseRounds:map[approx-clusters:124 approx-pivots:0 exact-pivots:19 hopset:94 low-clusters:59 tree-routing:4373] Faults:{Dropped:0 Retried:0 Lost:0 Duplicated:0 DelayRounds:0 Discarded:0 RetryWords:0}}"; got != want {
		t.Errorf("report over the grown network:\n got %s\nwant %s", got, want)
	}
}

// TestQuantizeGenerated pins Quantize of generated networks bit for bit.
func TestQuantizeGenerated(t *testing.T) {
	for _, c := range []struct {
		fam  Family
		n    int
		seed int64
		eps  float64
		want string
	}{
		{PowerLaw, 200, 4, 0.1, "1d58d502d6764222c39c1423876c36be313bb828a1ea22dfa0e7466c2955f7d1"},
		{ErdosRenyi, 100, 2, 0.25, "89c7d695b34d20c7991da2d7a59d2f886850ae1330221437162c351f09f6142b"},
		{Grid, 400, 1, 0.5, "424f820d60a56c67660aca227112409675f18f12ec0bd70f34be4a0503c810b6"},
	} {
		net, err := Generate(c.fam, c.n, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		before := topoDigest(net.freeze())
		q := net.Quantize(c.eps)
		if got := topoDigest(q.freeze()); got != c.want {
			t.Errorf("%s n=%d: quantized digest %s, want %s", c.fam, c.n, got, c.want)
		}
		if topoDigest(net.freeze()) != before {
			t.Errorf("%s n=%d: Quantize changed its receiver", c.fam, c.n)
		}
	}
}

// TestAddLinkErrors pins AddLink's error text for every rejected link, on a
// fresh and on a generated network, and that parallel links are accepted.
func TestAddLinkErrors(t *testing.T) {
	gen, err := Generate(Grid, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []*Network{NewNetwork(3), gen} {
		n := net.Nodes()
		for _, c := range []struct {
			u, v int
			w    float64
			want string
		}{
			{0, n, 1, fmt.Sprintf("graph: edge {0,%d} out of range [0,%d)", n, n)},
			{-1, 0, 1, fmt.Sprintf("graph: edge {-1,0} out of range [0,%d)", n)},
			{1, 1, 1, "graph: self loop at 1"},
			{0, 1, 0, "graph: invalid weight 0 on {0,1}"},
			{0, 1, -2, "graph: invalid weight -2 on {0,1}"},
			{0, 1, math.Inf(1), "graph: invalid weight +Inf on {0,1}"},
			{0, 1, math.NaN(), "graph: invalid weight NaN on {0,1}"},
		} {
			err := net.AddLink(c.u, c.v, c.w)
			if err == nil || err.Error() != c.want {
				t.Errorf("n=%d AddLink(%d, %d, %v) = %v, want %q", n, c.u, c.v, c.w, err, c.want)
			}
		}
		m := net.Links()
		for i := 0; i < 2; i++ {
			if err := net.AddLink(0, 1, 4); err != nil {
				t.Fatalf("parallel link %d: %v", i, err)
			}
		}
		if net.Links() != m+2 {
			t.Errorf("n=%d: %d links after two parallel links, want %d", n, net.Links(), m+2)
		}
		if d := net.ShortestPath(0, 1); d > 4 {
			t.Errorf("n=%d: ShortestPath(0, 1) = %v over a weight-4 link", n, d)
		}
	}
}

// TestShortestPathAllocatesNoTopology pins that a query on an unmodified
// network reads the topology the network already holds: ShortestPath
// allocates no more than the Dijkstra run it makes.
func TestShortestPathAllocatesNoTopology(t *testing.T) {
	for _, net := range []*Network{mustGenerate(t, ErdosRenyi, 192, 1), grownNetwork(t)} {
		topo := net.freeze()
		dijkstra := testing.AllocsPerRun(20, func() { graph.Dijkstra(topo, 3) })
		query := testing.AllocsPerRun(20, func() { net.ShortestPath(3, 40) })
		if query > dijkstra {
			t.Errorf("ShortestPath allocates %v times per call, Dijkstra alone %v", query, dijkstra)
		}
	}
}

func mustGenerate(t *testing.T, f Family, n int, seed int64) *Network {
	t.Helper()
	net, err := Generate(f, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestNetworkConcurrentReads runs read-only queries on one user-built
// network from several goroutines at once; `make race` runs it under the
// race detector, which the network's lazily frozen topology must satisfy.
func TestNetworkConcurrentReads(t *testing.T) {
	net := NewNetwork(0)
	for i := 0; i < 40; i++ {
		net.AddNode()
	}
	for i := 1; i < 40; i++ {
		net.MustAddLink(i-1, i, float64(1+i%5))
	}
	net.MustAddLink(0, 39, 2)
	want := net.ShortestPath(0, 20)
	net.MustAddLink(0, 20, 100) // invalidate whatever the query froze
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if d := net.ShortestPath(0, 20); d != want {
					errs <- fmt.Sprintf("ShortestPath = %v, want %v", d, want)
					return
				}
				if !net.Connected() {
					errs <- "not connected"
					return
				}
				if _, err := net.SpanningTree(0, "bfs", 1); err != nil {
					errs <- err.Error()
					return
				}
				_ = net.AspectRatio()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
