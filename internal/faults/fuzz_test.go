package faults

import (
	"reflect"
	"testing"
)

// FuzzParseSpec: a fault spec either fails to parse with an error, or parses
// to a plan whose probabilities are probabilities and whose delay is not
// negative, which String renders back into a spec that parses to the same
// plan, and which compiles for a small simulator. The committed corpus in
// testdata/fuzz/FuzzParseSpec covers every key, windows, bare-member lists
// and the malformed forms TestParseSpecEmptyAndErrors rejects.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		"", "drop=0.05,delay=2,dup=0.01,seed=7,budget=3",
		"crash=3,17,crash=5@100-200", "part=1@0-50,2,3,drop=0.1",
		"drop=NaN", "crash=1@9-3", "part=2,x",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSpec(spec)
		if err != nil {
			if p != nil {
				t.Fatalf("ParseSpec(%q) returned a plan with error %v", spec, err)
			}
			return
		}
		if !(p.Drop >= 0 && p.Drop <= 1) || !(p.Duplicate >= 0 && p.Duplicate <= 1) || p.Delay < 0 {
			t.Fatalf("ParseSpec(%q) accepted drop=%v dup=%v delay=%v", spec, p.Drop, p.Duplicate, p.Delay)
		}
		Compile(p, 8)
		if p.Empty() {
			return // String renders every empty plan as "none"
		}
		s := p.String()
		q, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %+v renders as %q, which fails to parse: %v", spec, p, s, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("ParseSpec(%q) = %+v renders as %q, which parses to %+v", spec, p, s, q)
		}
	})
}
