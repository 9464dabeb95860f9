package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"lowmemroute/internal/clusterroute"
	"lowmemroute/internal/graph"
	"lowmemroute/internal/tz"
)

// fuzzSeeds returns the labels and tables of a small Thorup–Zwick scheme in
// wire form: the real encodings the fuzzers mutate.
func fuzzSeeds(f *testing.F) (labels, tables [][]byte) {
	g, err := graph.GenerateCSR(graph.FamilyErdosRenyi, 24, rand.New(rand.NewSource(1)))
	if err != nil {
		f.Fatal(err)
	}
	s, err := tz.Build(g, tz.Options{K: 3, Seed: 2})
	if err != nil {
		f.Fatal(err)
	}
	for v := 0; v < g.N(); v += 5 {
		labels = append(labels, EncodeLabel(s.Labels[v]))
		tables = append(tables, EncodeTable(s.Table(v)))
	}
	return labels, tables
}

// FuzzDecodeLabel: an encoded label either fails to decode with an error,
// or decodes to a label whose own encoding decodes back to it (the decoder
// accepts any nonzero membership flag byte, so the input bytes themselves
// need not reappear).
func FuzzDecodeLabel(f *testing.F) {
	labels, _ := fuzzSeeds(f)
	for _, b := range labels {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add(append(EncodeLabel(clusterroute.Label{Vertex: 1}), 0xAB))
	f.Add([]byte{2, 1, 0, 1, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Fuzz(func(t *testing.T, b []byte) {
		l, err := DecodeLabel(b)
		if err != nil {
			return
		}
		back, err := DecodeLabel(EncodeLabel(l))
		if err != nil {
			t.Fatalf("DecodeLabel(%x) = %+v, whose encoding fails to decode: %v", b, l, err)
		}
		if !reflect.DeepEqual(back, l) {
			t.Fatalf("DecodeLabel(%x) = %+v, whose encoding decodes to %+v", b, l, back)
		}
	})
}

// FuzzDecodeTable: an encoded routing table either fails to decode with an
// error, or is the canonical encoding of what it decodes to: it re-encodes
// to exactly its own bytes.
func FuzzDecodeTable(f *testing.F) {
	_, tables := fuzzSeeds(f)
	for _, b := range tables {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 1, 1, 1})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1})
	f.Add([]byte{2, 4, 1, 2, 1, 1, 4, 1, 2, 1, 1}) // center 3 twice
	f.Fuzz(func(t *testing.T, b []byte) {
		tab, err := DecodeTable(b)
		if err != nil {
			return
		}
		if back := EncodeTable(tab); !bytes.Equal(back, b) {
			t.Fatalf("DecodeTable(%x) = %+v, which encodes to %x", b, tab, back)
		}
	})
}
