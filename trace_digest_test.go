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

// traceDigest runs build under a fresh tracer and hashes the export with its
// host-measured fields (wall times, heap/alloc/GC deltas) zeroed: what is
// left is the simulation's own record — counters, span deltas and the
// per-round sample series, active counts included.
func traceDigest(t *testing.T, build func(*Tracer) error) string {
	t.Helper()
	tracer := NewTracer()
	if err := build(tracer); err != nil {
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

// schemeBuild is a traced Build(Generate(fam, n, seed), K=k, Seed=seed).
func schemeBuild(fam Family, n, k int, seed int64) func(*Tracer) error {
	return func(tr *Tracer) error {
		net, err := Generate(fam, n, seed)
		if err != nil {
			return err
		}
		_, err = Build(net, Config{K: k, Seed: seed, Trace: tr})
		return err
	}
}

// treeBuild is a traced BuildTree of a kind spanning tree rooted at 0 of
// Generate(fam, n, seed).
func treeBuild(fam Family, n int, kind string, seed int64) func(*Tracer) error {
	return func(tr *Tracer) error {
		net, err := Generate(fam, n, seed)
		if err != nil {
			return err
		}
		tree, err := net.SpanningTree(0, kind, seed)
		if err != nil {
			return err
		}
		_, err = BuildTree(net, tree, TreeConfig{Seed: seed, Trace: tr})
		return err
	}
}

// TestTraceDigestsGolden pins the traced record of scheme and tree builds to
// digests committed in testdata: a change to how the engine or a builder
// schedules its work (timers, kickoff order, wake-ups) or to the substrate
// it runs on must not move a single round sample, message count or span
// delta.
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
		name  string
		build func(*Tracer) error
	}{
		{"grid400-k3", schemeBuild(Grid, 400, 3, 1)},
		{"er192-k2", schemeBuild(ErdosRenyi, 192, 2, 1)},
		{"powerlaw150-k2", schemeBuild(PowerLaw, 150, 2, 1)},
		{"er120-k3", schemeBuild(ErdosRenyi, 120, 3, 1)},
		{"tree-grid400-dfs", treeBuild(Grid, 400, "dfs", 1)},
	}
	for _, c := range cases {
		got := traceDigest(t, c.build)
		if got != want[c.name] {
			t.Errorf("%s: trace digest %s, golden %q", c.name, got, want[c.name])
		}
	}
}
