package trace

// Checkpoint envelope tests: word codec and file round-trip, schema-version
// gating (future versions are a distinct, errors.Is-matchable failure), CRC
// corruption detection, the WordReader decode cursor, and the matching
// future-version rejection on the trace export reader.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckpointFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	c := &Checkpoint{Meta: map[string]string{"family": "grid", "units": "3"}, Round: 1 << 40}
	// Payload words beyond 2^53 pin the reason sections are base64 bytes,
	// not JSON numbers.
	engine := []uint64{1, 0, 1<<63 | 12345, ^uint64(0)}
	c.AddSection("congest.engine", engine)
	c.AddSection("test.empty", nil)
	if err := WriteCheckpointFile(path, c); err != nil {
		t.Fatal(err)
	}

	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != CkptSchemaVersion {
		t.Fatalf("schema %q, want %q", got.Schema, CkptSchemaVersion)
	}
	if got.Round != 1<<40 || got.Meta["family"] != "grid" || got.Meta["units"] != "3" {
		t.Fatalf("header lost: round=%d meta=%v", got.Round, got.Meta)
	}
	words, ok, err := got.Section("congest.engine")
	if err != nil || !ok {
		t.Fatalf("engine section: ok=%v err=%v", ok, err)
	}
	if len(words) != len(engine) {
		t.Fatalf("engine section has %d words, want %d", len(words), len(engine))
	}
	for i := range words {
		if words[i] != engine[i] {
			t.Fatalf("word %d = %#x, want %#x", i, words[i], engine[i])
		}
	}
	if w, ok, err := got.Section("test.empty"); err != nil || !ok || len(w) != 0 {
		t.Fatalf("empty section: words=%v ok=%v err=%v", w, ok, err)
	}
	if _, ok, _ := got.Section("no.such"); ok {
		t.Fatal("missing section reported present")
	}
}

func TestCheckpointAtomicReplace(t *testing.T) {
	// A second write replaces the file in place and leaves no temp litter.
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	for round := int64(1); round <= 2; round++ {
		c := &Checkpoint{Round: round}
		c.AddSection("s", []uint64{uint64(round)})
		if err := WriteCheckpointFile(path, c); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 2 {
		t.Fatalf("round %d after rewrite, want 2", got.Round)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after two writes, want 1 (temp files must not leak)", len(entries))
	}
}

func TestReadCheckpointSchemaGate(t *testing.T) {
	mk := func(schema string) string {
		c := &Checkpoint{}
		c.AddSection("s", []uint64{7})
		if err := c.Seal(); err != nil {
			t.Fatal(err)
		}
		c.Schema = schema
		path := filepath.Join(t.TempDir(), "x.ckpt")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := WriteCheckpoint(f, c); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		schema string
		future bool // expect ErrCkptFutureSchema vs a plain unsupported error
	}{
		{"lowmemroute.ckpt/v2", true},
		{"lowmemroute.ckpt/v99", true},
		{"lowmemroute.ckpt/v0", false},
		{"lowmemroute.trace/v3", false}, // right family prefix shape, wrong family
		{"garbage", false},
		{"", false},
	}
	for _, tc := range cases {
		t.Run("schema="+tc.schema, func(t *testing.T) {
			_, err := ReadCheckpointFile(mk(tc.schema))
			if err == nil {
				t.Fatalf("schema %q accepted", tc.schema)
			}
			if got := errors.Is(err, ErrCkptFutureSchema); got != tc.future {
				t.Fatalf("schema %q: errors.Is(ErrCkptFutureSchema)=%v, want %v (err=%v)", tc.schema, got, tc.future, err)
			}
			if tc.future && !strings.Contains(err.Error(), "v1") {
				t.Fatalf("future-schema error should name the supported version: %v", err)
			}
		})
	}
}

func TestReadCheckpointCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	c := &Checkpoint{}
	c.AddSection("s", []uint64{1, 2, 3})
	if err := WriteCheckpointFile(path, c); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit: valid JSON, valid base64 length, wrong CRC.
	tampered := strings.Replace(string(raw), EncodeWords([]uint64{1, 2, 3}), EncodeWords([]uint64{1, 2, 7}), 1)
	if tampered == string(raw) {
		t.Fatal("payload substring not found; test setup broken")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReadCheckpointFile(path)
	if !errors.Is(err, ErrCkptCorrupt) {
		t.Fatalf("tampered payload: err=%v, want ErrCkptCorrupt", err)
	}
}

func TestDecodeWordsRejectsPartialWord(t *testing.T) {
	if _, err := DecodeWords("AAAA"); err == nil { // 3 bytes: not a whole word
		t.Fatal("partial-word payload accepted")
	}
	if _, err := DecodeWords("!!!"); err == nil {
		t.Fatal("invalid base64 accepted")
	}
}

func TestWordReader(t *testing.T) {
	r := NewWordReader([]uint64{5, ^uint64(0), 1, 10, 11, 12})
	if got := r.Word(); got != 5 {
		t.Fatalf("Word=%d", got)
	}
	if got := r.Int(); got != -1 {
		t.Fatalf("Int of all-ones word = %d, want -1", got)
	}
	if !r.Bool() {
		t.Fatal("Bool of 1 = false")
	}
	if got := r.Take(3); len(got) != 3 || got[0] != 10 || got[2] != 12 {
		t.Fatalf("Take(3)=%v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("clean decode reported %v", err)
	}

	t.Run("overrun", func(t *testing.T) {
		r := NewWordReader([]uint64{1})
		r.Word()
		if got := r.Word(); got != 0 {
			t.Fatalf("read past end = %d, want 0", got)
		}
		if err := r.Done(); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("overrun Done()=%v", err)
		}
	})
	t.Run("take-overrun", func(t *testing.T) {
		r := NewWordReader([]uint64{1, 2})
		if got := r.Take(3); got != nil {
			t.Fatalf("oversized Take=%v, want nil", got)
		}
		if err := r.Done(); err == nil {
			t.Fatal("oversized Take not flagged")
		}
	})
	t.Run("trailing", func(t *testing.T) {
		r := NewWordReader([]uint64{1, 2})
		r.Word()
		if err := r.Done(); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("trailing words Done()=%v", err)
		}
	})
	t.Run("empty-take", func(t *testing.T) {
		r := NewWordReader(nil)
		if got := r.Take(0); got != nil {
			t.Fatalf("Take(0)=%v", got)
		}
		if err := r.Done(); err != nil {
			t.Fatalf("empty payload Done()=%v", err)
		}
	})
}

// TestReadJSONFutureSchema pins the trace-export counterpart of the
// checkpoint gate: exports from a newer writer get a "newer version" error
// telling the user to upgrade, distinct from the garbage-schema error.
func TestReadJSONFutureSchema(t *testing.T) {
	cases := []struct {
		schema string
		want   string
	}{
		{"lowmemroute.trace/v5", "newer version"},
		{"lowmemroute.trace/v99", "newer version"},
		{"lowmemroute.trace/v0", "unsupported schema"},
		{"lowmemroute.ckpt/v9", "unsupported schema"}, // wrong family: not "future"
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
