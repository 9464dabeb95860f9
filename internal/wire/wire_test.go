package wire

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"lowmemroute/internal/clusterroute"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/treeroute"
	"lowmemroute/internal/tz"
)

func TestTreeTableRoundTrip(t *testing.T) {
	tests := []treeroute.Table{
		{In: 1, Out: 10, Parent: 5, Heavy: 7},
		{In: 0, Out: 0, Parent: graph.NoVertex, Heavy: graph.NoVertex},
		{In: 1 << 20, Out: 1<<20 + 5, Parent: 999999, Heavy: 0},
	}
	for _, want := range tests {
		b := AppendTreeTable(nil, want)
		got, rest, err := DecodeTreeTable(b)
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if len(rest) != 0 || got != want {
			t.Fatalf("round trip: %+v -> %+v (rest %d)", want, got, len(rest))
		}
	}
}

func TestTreeLabelRoundTrip(t *testing.T) {
	want := treeroute.Label{
		In: 42,
		Light: []treeroute.LightEdge{
			{Parent: 3, Child: 9},
			{Parent: 9, Child: 1},
		},
	}
	b := AppendTreeLabel(nil, want)
	got, rest, err := DecodeTreeLabel(b)
	if err != nil || len(rest) != 0 {
		t.Fatalf("err=%v rest=%d", err, len(rest))
	}
	if got.In != want.In || len(got.Light) != len(want.Light) {
		t.Fatalf("got %+v", got)
	}
	for i := range want.Light {
		if got.Light[i] != want.Light[i] {
			t.Fatalf("edge %d: %+v", i, got.Light[i])
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeTreeTable(nil); err == nil {
		t.Fatal("empty table should error")
	}
	if _, _, err := DecodeTreeLabel([]byte{1}); err == nil {
		t.Fatal("truncated label should error")
	}
	if _, err := DecodeLabel(nil); err == nil {
		t.Fatal("empty label should error")
	}
	if _, err := DecodeTable(nil); err == nil {
		t.Fatal("empty table should error")
	}
	// Hostile count that exceeds the payload must fail fast, not allocate.
	if _, _, err := DecodeTreeLabel([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}); err == nil {
		t.Fatal("oversized count should error")
	}
	// Trailing garbage detected.
	b := EncodeLabel(clusterroute.Label{Vertex: 1})
	if _, err := DecodeLabel(append(b, 0xAB)); err == nil {
		t.Fatal("trailing bytes should error")
	}
}

func TestSchemeLabelsAndTablesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, 120, r)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tz.Build(g, tz.Options{K: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	totalLabelBytes, totalTableBytes := 0, 0
	for v := 0; v < g.N(); v++ {
		lb := EncodeLabel(s.Labels[v])
		totalLabelBytes += len(lb)
		gotL, err := DecodeLabel(lb)
		if err != nil {
			t.Fatalf("label %d: %v", v, err)
		}
		if gotL.Vertex != v || len(gotL.Entries) != len(s.Labels[v].Entries) {
			t.Fatalf("label %d mismatch", v)
		}
		for i, e := range s.Labels[v].Entries {
			ge := gotL.Entries[i]
			if ge.Level != e.Level || ge.Root != e.Root || ge.InCluster != e.InCluster ||
				ge.TreeLabel.In != e.TreeLabel.In || len(ge.TreeLabel.Light) != len(e.TreeLabel.Light) {
				t.Fatalf("label %d entry %d mismatch: %+v vs %+v", v, i, ge, e)
			}
		}

		tab := s.Table(v)
		tb := EncodeTable(tab)
		totalTableBytes += len(tb)
		gotT, err := DecodeTable(tb)
		if err != nil {
			t.Fatalf("table %d: %v", v, err)
		}
		if !slices.Equal(gotT, tab) {
			t.Fatalf("table %d: decoded %+v, want %+v", v, gotT, tab)
		}
	}
	// Sanity: labels are genuinely small on the wire (paper: O(k log n)
	// words; varint bytes should be a few dozen at n=120, k=3).
	avgLabel := totalLabelBytes / g.N()
	if avgLabel > 80 {
		t.Fatalf("average encoded label %d bytes - not compact", avgLabel)
	}
}

// TestDecodeTableRejectsNonCanonical checks that a table decodes only from
// its one canonical encoding: centers strictly ascending and every varint
// in its shortest form.
func TestDecodeTableRejectsNonCanonical(t *testing.T) {
	entry := func(center int) []byte { return AppendTreeTable(putID(nil, center), treeroute.Table{In: 1, Out: 2}) }
	table := func(entries ...[]byte) []byte {
		b := []byte{byte(len(entries))}
		for _, e := range entries {
			b = append(b, e...)
		}
		return b
	}
	if _, err := DecodeTable(table(entry(3), entry(7))); err != nil {
		t.Fatalf("ascending centers: %v", err)
	}
	for name, b := range map[string][]byte{
		"repeated center":   table(entry(3), entry(3)),
		"descending center": table(entry(7), entry(3)),
		"overlong count":    append([]byte{0x81, 0x00}, table(entry(3))[1:]...),
		"overlong id":       append([]byte{1, 0x84, 0x00}, entry(3)[1:]...),
	} {
		if tab, err := DecodeTable(b); err == nil {
			t.Errorf("%s: decoded %x to %+v, want an error", name, b, tab)
		}
	}
}

// Property: arbitrary labels round-trip.
func TestLabelRoundTripProperty(t *testing.T) {
	f := func(vertex uint16, levels []uint8, ins []uint16) bool {
		l := clusterroute.Label{Vertex: int(vertex)}
		for i, lvl := range levels {
			e := clusterroute.PivotEntry{Level: int(lvl), Root: int(lvl) * 3}
			if i < len(ins) {
				e.InCluster = true
				e.TreeLabel = treeroute.Label{In: int(ins[i])}
			}
			l.Entries = append(l.Entries, e)
		}
		got, err := DecodeLabel(EncodeLabel(l))
		if err != nil || got.Vertex != l.Vertex || len(got.Entries) != len(l.Entries) {
			return false
		}
		for i := range l.Entries {
			if got.Entries[i].Level != l.Entries[i].Level ||
				got.Entries[i].InCluster != l.Entries[i].InCluster {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
