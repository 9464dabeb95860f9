package lowmemroute

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"lowmemroute/internal/baseline"
	"lowmemroute/internal/core"
	"lowmemroute/internal/tz"
)

// encodedStateGolden is the SHA-256 of every scheme's per-node wire state
// and every tree scheme's routes (see TestEncodedStateGolden).
const encodedStateGolden = "eea91a09dc4279b8f67d75abd27fe0e36c453578f6dd3d44407da9424f7249e5"

// hashInt writes one integer into the digest in a fixed width.
func hashInt(h hash.Hash, x int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(x))
	h.Write(b[:])
}

// hashSchemeState writes every node's encoded table and label and both word
// counts into the digest.
func hashSchemeState(h hash.Hash, s *Scheme, n int) {
	for v := 0; v < n; v++ {
		tab, lab := s.EncodedTable(v), s.EncodedLabel(v)
		hashInt(h, int64(len(tab)))
		h.Write(tab)
		hashInt(h, int64(len(lab)))
		h.Write(lab)
		hashInt(h, int64(s.TableWords(v)))
		hashInt(h, int64(s.LabelWords(v)))
	}
}

// hashTreeRoutes writes every ordered pair's route through ts: the error
// flag, the walked nodes and the weight's bits.
func hashTreeRoutes(h hash.Hash, ts *TreeScheme, n int) {
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			p, err := ts.Route(src, dst)
			if err != nil {
				hashInt(h, 1)
			} else {
				hashInt(h, 0)
			}
			hashInt(h, int64(len(p.Nodes)))
			for _, v := range p.Nodes {
				hashInt(h, int64(v))
			}
			hashInt(h, int64(math.Float64bits(p.Weight)))
		}
	}
}

// TestEncodedStateGolden pins the routing state a built scheme hands out
// (wire-encoded tables and labels, table and label word counts) for the
// Thorup–Zwick, LP15 and paper schemes, and every tree-scheme route, to one
// digest: a change to how schemes store or walk their state must not move a
// byte of it.
func TestEncodedStateGolden(t *testing.T) {
	h := sha256.New()
	cells := []struct {
		fam  Family
		n, k int
	}{
		{ErdosRenyi, 72, 2},
		{ErdosRenyi, 72, 3},
		{Grid, 64, 2},
	}
	for _, c := range cells {
		net, err := Generate(c.fam, c.n, 1)
		if err != nil {
			t.Fatal(err)
		}
		topo := net.freeze()
		ref, err := tz.Build(topo, tz.Options{K: c.k, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		lp, err := baseline.BuildLP15(newSim(topo, nil, nil, nil), baseline.Options{K: c.k, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		paper, err := Build(net, Config{K: c.k, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		hashSchemeState(h, &Scheme{inner: &core.Scheme{Scheme: ref.Scheme}}, topo.N())
		hashSchemeState(h, &Scheme{inner: &core.Scheme{Scheme: lp}}, topo.N())
		hashSchemeState(h, paper, topo.N())
	}

	net, err := Generate(ErdosRenyi, 72, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := net.Nodes()
	bfs, err := net.SpanningTree(0, "bfs", 1)
	if err != nil {
		t.Fatal(err)
	}
	dfs, err := net.SpanningTree(5, "dfs", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tree := range []*Tree{bfs, dfs} {
		ts, err := BuildTree(net, tree, TreeConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		hashTreeRoutes(h, ts, n)
	}
	// The second tree of the pair is the BFS tree's root and its children
	// only, so its routes include non-member endpoints.
	parents := make([]int, n)
	for v := range parents {
		parents[v] = -1
		if bfs.Parent(v) == bfs.Root() {
			parents[v] = bfs.Root()
		}
	}
	star, err := net.TreeFromParents(bfs.Root(), parents)
	if err != nil {
		t.Fatal(err)
	}
	if star.Size() == n || star.Size() < 3 {
		t.Fatalf("star tree has %d of %d nodes", star.Size(), n)
	}
	pair, _, err := BuildTrees(net, []*Tree{dfs, star}, TreeConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range pair {
		hashTreeRoutes(h, ts, n)
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != encodedStateGolden {
		t.Errorf("encoded state digest %s, golden %s", got, encodedStateGolden)
	}
}
