package trace

// Export reader tests: the future-version gate, the legacy-schema
// rejection, and FuzzReadJSON over real exports.

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// idleExport is the trace of a small traced scheme build, lowmemroute.Build
// on Generate(Grid, 9, 1) with K=2 and Seed=1: a real v5 export whose
// fast-forwarded stretches appear as idle samples.
const idleExport = "testdata/build-grid9-idle.json"

// TestReadJSONFutureSchema: exports from a newer writer get a "newer
// version" error telling the user to upgrade, distinct from the
// garbage-schema error.
func TestReadJSONFutureSchema(t *testing.T) {
	cases := []struct {
		schema string
		want   string
	}{
		{"lowmemroute.trace/v6", "newer version"},
		{"lowmemroute.trace/v99", "newer version"},
		{"lowmemroute.trace/v0", "unsupported schema"},
		{"lowmemlint/v9", "unsupported schema"}, // wrong family: not "future"
		{"nonsense", "unsupported schema"},
	}
	for _, tc := range cases {
		t.Run("schema="+tc.schema, func(t *testing.T) {
			_, err := ReadJSON(strings.NewReader(`{"schema":"` + tc.schema + `","spans":[]}`))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("schema %q: err=%v, want containing %q", tc.schema, err, tc.want)
			}
		})
	}
}

// legacySchemas are the layouts before v5. Nothing writes them any more,
// and ReadJSON rejects them like any other unknown schema.
var legacySchemas = []string{
	"lowmemroute.trace/v1",
	"lowmemroute.trace/v2",
	"lowmemroute.trace/v3",
	"lowmemroute.trace/v4",
}

// TestReadJSONRejectsLegacySchemas: a v1-v4 export is an unsupported
// schema, not an older file to read.
func TestReadJSONRejectsLegacySchemas(t *testing.T) {
	for _, schema := range legacySchemas {
		_, err := ReadJSON(strings.NewReader(`{"schema":"` + schema + `","spans":[],"samples":[{"round":1,"rounds":1,"kind":"round","active":3}]}`))
		if err == nil || !strings.Contains(err.Error(), "unsupported schema") {
			t.Fatalf("schema %q: err=%v, want an unsupported-schema error", schema, err)
		}
	}
}

// seedExports returns one recording exported under the current schema and
// under each legacy schema string (inputs ReadJSON must reject), plus the
// committed idle-sample export.
func seedExports(tb testing.TB) map[string][]byte {
	src := &fakeSource{}
	r := NewRecorder()
	r.Attach(src)
	r.SetMeta("tool", "routebench")
	r.SetMeta("n", "64")
	build := r.Begin("build")
	src.c = Counters{Rounds: 12, Messages: 34, Words: 56, PeakMemory: 8}
	phase := r.Begin("tree-routing")
	src.c = Counters{Rounds: 20, Messages: 90, Words: 200, PeakMemory: 11}
	r.RoundSample(RoundSample{Round: 19, Rounds: 1, Kind: KindRound, Active: 4, Messages: 9, Words: 18,
		Backlog: 2, MemMax: 6, MemMean: 1.5, Dropped: 3, Retried: 2, Lost: 1, Duplicated: 1, Discarded: 1})
	phase.End()
	r.RoundSample(RoundSample{Round: 25, Rounds: 5, Kind: KindBroadcast, Active: 64, Messages: 63, Words: 63, MemMax: 2})
	src.c.Rounds = 25
	build.End()

	out := make(map[string][]byte)
	for _, schema := range append([]string{SchemaVersion}, legacySchemas...) {
		e := r.Export()
		e.Schema = schema
		var b bytes.Buffer
		if err := WriteExportJSON(&b, e); err != nil {
			tb.Fatal(err)
		}
		got, err := ReadJSON(bytes.NewReader(b.Bytes()))
		if schema != SchemaVersion {
			if err == nil {
				tb.Fatalf("%s seed was accepted", schema)
			}
		} else if err != nil || len(got.Spans) != 1 || len(got.Samples) != 2 {
			tb.Fatalf("%s seed does not read back: %+v, %v", schema, got, err)
		}
		out[schema] = b.Bytes()
	}

	idle, err := os.ReadFile(idleExport)
	if err != nil {
		tb.Fatal(err)
	}
	ex, err := ReadJSON(bytes.NewReader(idle))
	if err != nil || ex.Schema != SchemaVersion {
		tb.Fatalf("%s does not read back as %s: %v", idleExport, SchemaVersion, err)
	}
	var idleRounds, sum int64
	for _, s := range ex.Samples {
		sum += s.Rounds
		if s.Kind == KindIdle {
			idleRounds += s.Rounds
		}
	}
	if idleRounds == 0 || sum != ex.Counters.Rounds {
		tb.Fatalf("%s: idle samples cover %d rounds, samples %d of %d rounds", idleExport, idleRounds, sum, ex.Counters.Rounds)
	}
	out[idleExport] = idle
	return out
}

// FuzzReadJSON: ReadJSON never panics, and an export it accepts re-encodes
// through WriteExportJSON into a file that reads back to the same encoding.
func FuzzReadJSON(f *testing.F) {
	for _, b := range seedExports(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteExportJSON(&first, e); err != nil {
			t.Fatalf("accepted export does not re-encode: %v", err)
		}
		back, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded export rejected: %v\n%s", err, first.Bytes())
		}
		if err := WriteExportJSON(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("export changed across a re-read:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}
