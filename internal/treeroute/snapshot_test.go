package treeroute

// Build-level checkpoint/resume: a distributed construction checkpointed at
// every phase boundary must be resumable from EVERY cut point, with the
// resumed build's schemes, engine counters and meter peaks identical to an
// uninterrupted build. Resuming from all ten cuts is what pins the
// durable-vs-transient classification in the builder's checkpoint section: a
// field wrongly left out only bites at the cut right after the phase that
// wrote it.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lowmemroute/internal/congest"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/trace"
)

type buildSnap struct {
	rounds, messages, words int64
	peaks                   []int64
	schemes                 []*Scheme
}

func captureBuild(sim *congest.Simulator, res *DistResult) buildSnap {
	s := buildSnap{rounds: sim.Rounds(), messages: sim.Messages(), words: sim.Words(), schemes: res.Schemes}
	for v := 0; v < sim.N(); v++ {
		s.peaks = append(s.peaks, sim.Mem(v).Peak())
	}
	return s
}

func requireBuildsEqual(t *testing.T, got, want buildSnap) {
	t.Helper()
	if got.rounds != want.rounds || got.messages != want.messages || got.words != want.words {
		t.Fatalf("counters differ: rounds %d vs %d, messages %d vs %d, words %d vs %d",
			got.rounds, want.rounds, got.messages, want.messages, got.words, want.words)
	}
	if !reflect.DeepEqual(got.peaks, want.peaks) {
		t.Fatal("per-vertex meter peaks differ")
	}
	if len(got.schemes) != len(want.schemes) {
		t.Fatalf("scheme counts differ: %d vs %d", len(got.schemes), len(want.schemes))
	}
	for j := range want.schemes {
		requireSchemesEqual(t, got.schemes[j], want.schemes[j])
	}
}

func TestBuildDistributedResumeEveryCut(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, 100, r)
	if err != nil {
		t.Fatal(err)
	}
	trees := makeTrees(t, g, []int{0, 10}, "dfs", 4)
	opts := DistOptions{Seed: 5}

	build := func(ck *congest.Checkpointer) (buildSnap, error) {
		sim := congest.NewTopo(g, congest.WithSeed(opts.Seed))
		if err := ck.Attach(sim); err != nil {
			return buildSnap{}, err
		}
		o := opts
		o.Ckpt = ck
		res, err := BuildDistributed(sim, trees, o)
		if err != nil {
			return buildSnap{}, err
		}
		if err := ck.Err(); err != nil {
			return buildSnap{}, err
		}
		return captureBuild(sim, res), nil
	}

	ref, err := build(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Full build under a checkpointer, squirrelling away the snapshot after
	// each of the ten phases.
	dir := t.TempDir()
	live := filepath.Join(dir, "build.ckpt")
	ck := congest.NewCheckpointer(live)
	var cuts []string
	var units []string
	ck.SetOnMark(func(unit string, step int64) {
		raw, err := os.ReadFile(live)
		if err != nil {
			t.Errorf("read checkpoint after %s: %v", unit, err)
			return
		}
		cut := filepath.Join(dir, fmt.Sprintf("cut-%02d.ckpt", step))
		if err := os.WriteFile(cut, raw, 0o644); err != nil {
			t.Errorf("copy checkpoint after %s: %v", unit, err)
			return
		}
		cuts = append(cuts, cut)
		units = append(units, unit)
	})
	full, err := build(ck)
	if err != nil {
		t.Fatal(err)
	}
	requireBuildsEqual(t, full, ref) // checkpointing must not perturb the build
	if len(cuts) != 10 {
		t.Fatalf("recorded %d cut points, want 10 (units: %v)", len(cuts), units)
	}

	for i, cut := range cuts {
		t.Run(units[i], func(t *testing.T) {
			ckr, err := congest.ResumeCheckpointer(cut)
			if err != nil {
				t.Fatal(err)
			}
			got, err := build(ckr)
			if err != nil {
				t.Fatal(err)
			}
			requireBuildsEqual(t, got, ref)
		})
	}
}

// TestBuilderOldSectionsRestore: a version-2 builder section (a tree's block
// followed by one kickoff flag per member) and a version-1 section (no
// flags) restore to exactly the state the current version-3 section
// carries; the v2 flags are read and discarded. One tree keeps the v2 flags
// at the end of the section.
func TestBuilderOldSectionsRestore(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, 60, r)
	if err != nil {
		t.Fatal(err)
	}
	trees := makeTrees(t, g, []int{0}, "dfs", 4)
	const dfs = 7 // index of local-dfs in phases(): cut with DFS state set
	b := newDistBuilder(congest.NewTopo(g, congest.WithSeed(5)), trees, DistOptions{Seed: 5})
	for _, ph := range b.phases()[:dfs+1] {
		if err := ph.run(); err != nil {
			t.Fatal(err)
		}
	}
	want := b.AppendCkpt(nil)
	if want[0] != 3 {
		t.Fatalf("section version %d, want 3", want[0])
	}
	for _, version := range []uint64{1, 2} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			old := append([]uint64{version}, want[1:]...)
			if version == 2 {
				for range b.ts[0].verts {
					old = append(old, 1) // every member kicked
				}
			}
			fresh := newDistBuilder(congest.NewTopo(g, congest.WithSeed(5)), trees, DistOptions{Seed: 5})
			if err := fresh.RestoreCkpt(old); err != nil {
				t.Fatal(err)
			}
			if got := fresh.AppendCkpt(nil); !reflect.DeepEqual(got, want) {
				t.Fatal("restored builder re-serialises differently from the section it came from")
			}
		})
	}
	if err := b.RestoreCkpt(append([]uint64{4}, want[1:]...)); err == nil {
		t.Fatal("a future builder section version restored")
	}
}

// builderFixture is a two-tree build over an ER graph, small enough to
// fuzz: the graph and trees FuzzRestoreBuilderCkpt restores into.
func builderFixture(tb testing.TB) (*graph.CSR, []*graph.Tree) {
	tb.Helper()
	g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, 40, rand.New(rand.NewSource(31)))
	if err != nil {
		tb.Fatal(err)
	}
	topo := g
	r := rand.New(rand.NewSource(4))
	var trees []*graph.Tree
	for _, root := range []int{0, 10} {
		tr, err := graph.SpanningTree(topo, root, "dfs", r)
		if err != nil {
			tb.Fatal(err)
		}
		trees = append(trees, tr)
	}
	return topo, trees
}

// builderSections runs the fixture's build under a checkpointer and returns
// the builder section each of the named unit marks wrote.
func builderSections(tb testing.TB, units ...string) map[string][]uint64 {
	tb.Helper()
	topo, trees := builderFixture(tb)
	path := filepath.Join(tb.TempDir(), "build.ckpt")
	ck := congest.NewCheckpointer(path)
	out := map[string][]uint64{}
	ck.SetOnMark(func(unit string, _ int64) {
		if !slices.Contains(units, unit) {
			return
		}
		c, err := trace.ReadCheckpointFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		words, _, err := c.Section(BuilderSection)
		if err != nil {
			tb.Fatal(err)
		}
		out[unit] = words
	})
	sim := congest.NewTopo(topo, congest.WithSeed(5))
	if err := ck.Attach(sim); err != nil {
		tb.Fatal(err)
	}
	if _, err := BuildDistributed(sim, trees, DistOptions{Seed: 5, Ckpt: ck}); err != nil {
		tb.Fatal(err)
	}
	if err := ck.Err(); err != nil {
		tb.Fatal(err)
	}
	if len(out) != len(units) {
		tb.Fatalf("captured %d of the units %v", len(out), units)
	}
	return out
}

// TestRestoreBuilderCkptRejectsHugeRows: a list row whose length the
// section cannot back — huge, or negative — is an error, not an
// allocation.
func TestRestoreBuilderCkptRejectsHugeRows(t *testing.T) {
	topo, trees := builderFixture(t)
	words := builderSections(t, "tree:shifts-down")["tree:shifts-down"]
	// Locate the first tree's first ancestor row header and first
	// light-edge row header: version, tree count, member count m, seven
	// m-word arrays, then m ancestor rows.
	m := int(words[2])
	anc := 3 + 7*m
	light := anc
	for i := 0; i < m; i++ {
		k := int(words[light])
		light++
		if k > 0 {
			light += k - 1
		}
	}
	for _, tc := range []struct {
		name string
		at   int
		len  uint64
	}{
		{"anc-2^62", anc, 1 << 62},
		{"anc-maxint", anc, 1<<63 - 1},
		{"anc-negative", anc, 1<<64 - 1},
		{"light-2^62", light, 1 << 62},
		{"light-maxint", light, 1<<63 - 1},
		{"light-negative", light, 1<<64 - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := slices.Clone(words)
			bad[tc.at] = tc.len
			b := newDistBuilder(congest.NewTopo(topo, congest.WithSeed(5)), trees, DistOptions{Seed: 5})
			if err := b.RestoreCkpt(bad); err == nil {
				t.Fatal("a section with an unbacked row length restored")
			}
		})
	}
}

// TestRestoreBuilderCkptRejectsOutOfRange: the builder keeps its numbers as
// int32 and portal state only for portals, so a section holding a number
// outside the int32 range, or portal state at a non-portal (which the
// builder never writes), fails to restore instead of being truncated or
// dropped. The unmodified section restores.
func TestRestoreBuilderCkptRejectsOutOfRange(t *testing.T) {
	topo, trees := builderFixture(t)
	words := builderSections(t, "tree:shifts-down")["tree:shifts-down"]
	fresh := func() *distBuilder {
		return newDistBuilder(congest.NewTopo(topo, congest.WithSeed(5)), trees, DistOptions{Seed: 5})
	}
	if err := fresh().RestoreCkpt(words); err != nil {
		t.Fatalf("the builder's own section: %v", err)
	}
	// Layout of the first tree: version, tree count, member count m, then
	// m-word arrays localRoot, virtParent, ..., then m ancestor rows.
	m := int(words[2])
	nonPortal := slices.IndexFunc(fresh().ts[0].m, func(ms memberState) bool { return ms.portal < 0 })
	if nonPortal < 0 {
		t.Fatal("the fixture's first tree has no non-portal")
	}
	ancRow := 3 + 7*m
	for i := 0; i < nonPortal; i++ {
		if k := int(words[ancRow]); k > 0 {
			ancRow += k - 1
		}
		ancRow++
	}
	for _, tc := range []struct {
		name string
		at   int
		word uint64
		want string
	}{
		{"localRoot-2^40", 3, 1 << 40, "out of range"},
		{"localRoot-below-minint32", 3, 1<<64 - 1<<40, "out of range"},
		{"virtParent-at-non-portal", 3 + m + nonPortal, 5, "non-portal"},
		{"anc-row-at-non-portal", ancRow, 1, "non-portal"}, // an empty row: the layout is unchanged
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := slices.Clone(words)
			bad[tc.at] = tc.word
			if err := fresh().RestoreCkpt(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// FuzzRestoreBuilderCkpt: a builder section (little-endian words) either
// fails to restore with an error, or restores to a state whose own section
// restores back to the same state. The seeds are real unit-mark sections of
// the fixture build; the committed corpus in
// testdata/fuzz/FuzzRestoreBuilderCkpt holds the same sections.
func FuzzRestoreBuilderCkpt(f *testing.F) {
	for _, words := range builderSections(f, "tree:local-dfs", "tree:shifts-down") {
		b := make([]byte, 8*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint64(b[8*i:], w)
		}
		f.Add(b)
	}
	topo, trees := builderFixture(f)
	sim := congest.NewTopo(topo, congest.WithSeed(5))
	f.Fuzz(func(t *testing.T, data []byte) {
		words := make([]uint64, len(data)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		b := newDistBuilder(sim, trees, DistOptions{Seed: 5})
		if b.RestoreCkpt(words) != nil {
			return
		}
		first := b.AppendCkpt(nil)
		again := newDistBuilder(sim, trees, DistOptions{Seed: 5})
		if err := again.RestoreCkpt(first); err != nil {
			t.Fatalf("a builder's own section does not restore: %v", err)
		}
		if !reflect.DeepEqual(again.AppendCkpt(nil), first) {
			t.Fatal("a restored builder re-serialises differently")
		}
	})
}
