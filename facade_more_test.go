package lowmemroute

import (
	"math"
	"testing"
)

func TestBuildTreesParallel(t *testing.T) {
	net, err := Generate(ErdosRenyi, 200, 41)
	if err != nil {
		t.Fatal(err)
	}
	var trees []*Tree
	for _, root := range []int{0, 50, 100} {
		tree, err := net.SpanningTree(root, "sssp", int64(root))
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	schemes, rep, err := BuildTrees(net, trees, TreeConfig{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if len(schemes) != 3 {
		t.Fatalf("schemes=%d", len(schemes))
	}
	if rep.Rounds == 0 || rep.Portals == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	if rep.MaxTableWords != 4 {
		t.Fatalf("tables=%d want 4", rep.MaxTableWords)
	}
	for i, s := range schemes {
		for trial := 0; trial < 20; trial++ {
			u, v := (trial*17)%net.Nodes(), (trial*31+5)%net.Nodes()
			p, err := s.Route(u, v)
			if err != nil {
				t.Fatalf("tree %d route %d->%d: %v", i, u, v, err)
			}
			if p.Nodes[len(p.Nodes)-1] != v {
				t.Fatalf("tree %d route ends at %d", i, p.Nodes[len(p.Nodes)-1])
			}
			for j := 1; j < len(p.Nodes); j++ {
				a, b := p.Nodes[j-1], p.Nodes[j]
				if trees[i].Parent(a) != b && trees[i].Parent(b) != a {
					t.Fatalf("tree %d hop {%d,%d} not a tree edge", i, a, b)
				}
			}
		}
	}
}

func TestBuildTreesEdgeCases(t *testing.T) {
	net := NewNetwork(2)
	net.MustAddLink(0, 1, 1)
	if _, _, err := BuildTrees(nil, nil, TreeConfig{}); err == nil {
		t.Fatal("nil network should error")
	}
	schemes, _, err := BuildTrees(net, nil, TreeConfig{})
	if err != nil || len(schemes) != 0 {
		t.Fatalf("empty trees: %v, %d schemes", err, len(schemes))
	}
	if _, _, err := BuildTrees(net, []*Tree{nil}, TreeConfig{}); err == nil {
		t.Fatal("nil tree should error")
	}
}

func TestQuantizeNetwork(t *testing.T) {
	net := NewNetwork(3)
	net.MustAddLink(0, 1, 3)
	net.MustAddLink(1, 2, 1000)
	if got := net.AspectRatio(); got != 1000.0/3 {
		t.Fatalf("AspectRatio=%v", got)
	}
	q := net.Quantize(0.1)
	if q.Nodes() != 3 || q.Links() != 2 {
		t.Fatalf("shape changed")
	}
	// Distances distorted by at most (1+eps).
	d, qd := net.ShortestPath(0, 2), q.ShortestPath(0, 2)
	if qd < d || qd > d*1.1+1e-9 {
		t.Fatalf("distance %v -> %v out of (1+eps) band", d, qd)
	}
	// Routing on the quantized network still meets the adjusted bound.
	scheme, err := Build(q, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := scheme.Route(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Weight > d*(4*2-3)*1.1+1e-9 {
		t.Fatalf("quantized stretch too large: %v vs %v", p.Weight, d)
	}
}

func TestEncodedLabelAndTable(t *testing.T) {
	net, err := Generate(ErdosRenyi, 100, 71)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := Build(net, Config{K: 3, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < net.Nodes(); v += 7 {
		lb, tb := scheme.EncodedLabel(v), scheme.EncodedTable(v)
		if len(lb) == 0 || len(tb) == 0 {
			t.Fatalf("node %d: empty encodings", v)
		}
		// Wire bytes track the word accounting: a word is at most 8 bytes
		// and varints usually do much better.
		if len(lb) > 8*scheme.LabelWords(v) {
			t.Fatalf("node %d: label %d bytes vs %d words", v, len(lb), scheme.LabelWords(v))
		}
		if len(tb) > 8*scheme.TableWords(v) {
			t.Fatalf("node %d: table %d bytes vs %d words", v, len(tb), scheme.TableWords(v))
		}
	}
}

func TestServePacketNetwork(t *testing.T) {
	net, err := Generate(ErdosRenyi, 80, 81)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := Build(net, Config{K: 2, Seed: 82})
	if err != nil {
		t.Fatal(err)
	}
	pn := scheme.Serve()
	defer pn.Close()
	for trial := 0; trial < 40; trial++ {
		u, v := (trial*13)%net.Nodes(), (trial*37+2)%net.Nodes()
		p, err := pn.Send(u, v)
		if err != nil {
			t.Fatalf("send %d->%d: %v", u, v, err)
		}
		want, err := scheme.Route(u, v)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Nodes) != len(want.Nodes) {
			t.Fatalf("live path %v, walk %v", p.Nodes, want.Nodes)
		}
	}
	pn.Close() // idempotent
	if _, err := pn.Send(0, 1); err == nil {
		t.Fatal("send after close should fail")
	}
}

func TestQuantizeLargeAspectRatio(t *testing.T) {
	// A network with a 2^30 aspect ratio: quantization must keep the
	// metric within (1+eps) while crushing the weight encoding.
	net := NewNetwork(4)
	net.MustAddLink(0, 1, 1)
	net.MustAddLink(1, 2, math.Pow(2, 15))
	net.MustAddLink(2, 3, math.Pow(2, 30))
	q := net.Quantize(0.05)
	for _, pair := range [][2]int{{0, 3}, {1, 3}, {0, 2}} {
		d, qd := net.ShortestPath(pair[0], pair[1]), q.ShortestPath(pair[0], pair[1])
		if qd < d || qd > d*1.05+1e-6 {
			t.Fatalf("pair %v: %v -> %v", pair, d, qd)
		}
	}
}

// TestFacadeRejectsOutOfRangeNodes: node ids from outside the network are
// answered, not panicked on — SpanningTree errors and ShortestPath is +Inf.
func TestFacadeRejectsOutOfRangeNodes(t *testing.T) {
	net, err := Generate(Grid, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []int{-1, net.Nodes(), 99} {
		for _, kind := range []string{"bfs", "sssp", "dfs"} {
			if _, err := net.SpanningTree(root, kind, 1); err == nil {
				t.Errorf("SpanningTree(%d, %q): want an error", root, kind)
			}
		}
	}
	for _, tc := range []struct{ u, v int }{{0, 99}, {99, 0}, {-1, 0}, {0, -1}, {0, net.Nodes()}} {
		if d := net.ShortestPath(tc.u, tc.v); !math.IsInf(d, 1) {
			t.Errorf("ShortestPath(%d, %d) = %v, want +Inf", tc.u, tc.v, d)
		}
	}
	if d := net.ShortestPath(0, net.Nodes()-1); math.IsInf(d, 0) || d <= 0 {
		t.Errorf("ShortestPath(0, %d) = %v, want a finite distance", net.Nodes()-1, d)
	}
}
