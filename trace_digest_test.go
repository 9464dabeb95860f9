package lowmemroute

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"lowmemroute/internal/trace"
)

// traceDigestGolden holds one "<case> <sha256>" line per traced build.
const traceDigestGolden = "testdata/trace_digests.golden"

// traceDigest builds a network under a tracer and hashes the export with its
// host-measured fields (wall times, heap/alloc/GC deltas) zeroed: what is
// left is the simulation's own record — counters, span deltas and the
// per-round sample series, active counts included.
func traceDigest(t *testing.T, fam Family, n, k int, seed int64) string {
	t.Helper()
	net, err := Generate(fam, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	tracer := NewTracer()
	if _, err := Build(net, Config{K: k, Seed: seed, Trace: tracer}); err != nil {
		t.Fatal(err)
	}
	ex := tracer.recorder().Export()
	ex.StripWall()
	var buf bytes.Buffer
	if err := trace.WriteExportJSON(&buf, ex); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestTraceDigestsGolden pins the traced record of two builds to digests
// committed in testdata: a change to how the engine or a builder schedules
// its work (timers, kickoff order, wake-ups) must not move a single round
// sample, message count or span delta.
func TestTraceDigestsGolden(t *testing.T) {
	f, err := os.Open(traceDigestGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, sum, ok := strings.Cut(line, " "); ok {
			want[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		fam  Family
		n, k int
	}{
		{"grid400-k3", Grid, 400, 3},
		{"er192-k2", ErdosRenyi, 192, 2},
	}
	for _, c := range cases {
		got := traceDigest(t, c.fam, c.n, c.k, 1)
		if got != want[c.name] {
			t.Errorf("%s: trace digest %s, golden %q", c.name, got, want[c.name])
		}
	}
}
