package lowmemroute

import (
	"bytes"
	"reflect"
	"testing"

	"lowmemroute/internal/trace"
)

// TestInstrumentationModesAgree builds each case four ways through the
// facade — plain, traced, metered, traced and metered — and checks the one
// instrumentation stream end to end: every mode returns the same Report,
// each traced export's samples add up to its counters, and a registry
// shared by two builds (the metered and the traced-and-metered one) reads
// the sum of both, with every build phase done.
func TestInstrumentationModesAgree(t *testing.T) {
	drop, err := ParseFaultSpec("drop=0.05,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		fam    Family
		n, k   int
		seed   int64
		faults *FaultPlan
	}{
		{"grid400-k3", Grid, 400, 3, 1_000_003, nil},
		{"er192-k2", ErdosRenyi, 192, 2, 1, nil},
		{"er64-k2-drop", ErdosRenyi, 64, 2, 1, drop},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net, err := Generate(c.fam, c.n, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			met := NewMetrics()
			build := func(tr *Tracer, m *Metrics) Report {
				s, err := Build(net, Config{K: c.k, Seed: c.seed, Faults: c.faults, Trace: tr, Metrics: m})
				if err != nil {
					t.Fatal(err)
				}
				if tr != nil {
					requireSamplesSumToCounters(t, tr.recorder().Export())
				}
				return s.Report()
			}
			plain := build(nil, nil)
			if c.faults != nil && !plain.Faults.Any() {
				t.Fatal("fault plan injected nothing")
			}
			for mode, rep := range map[string]Report{
				"traced":         build(NewTracer(), nil),
				"metered":        build(nil, met),
				"traced+metered": build(NewTracer(), met),
			} {
				if !reflect.DeepEqual(rep, plain) {
					t.Fatalf("%s report differs from plain:\n%+v\n%+v", mode, rep, plain)
				}
			}

			reg := met.Registry()
			for name, want := range map[string]int64{
				"congest_rounds_total":   2 * plain.Rounds,
				"congest_messages_total": 2 * plain.Messages,
				"congest_words_total":    2 * plain.Words,
			} {
				if got := reg.Counter(name).Value(); got != want {
					t.Errorf("%s = %d after two builds, want %d", name, got, want)
				}
			}
			if p := reg.Phase(); p.Name != "tree-routing" || p.Total == 0 || p.Done != p.Total {
				t.Errorf("build phase %+v after a finished build", p)
			}
			var buf bytes.Buffer
			if err := met.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			for _, fam := range []string{"congest_active_vertices", "build_phase_info", "build_phases_done", "build_phases_total"} {
				if !bytes.Contains(buf.Bytes(), []byte("# TYPE "+fam+" ")) {
					t.Errorf("exposition lacks %s:\n%s", fam, buf.Bytes())
				}
			}
		})
	}
}

// requireSamplesSumToCounters checks that an export's samples, summed kind
// by kind, account for every round, message and word of its counters.
func requireSamplesSumToCounters(t *testing.T, ex trace.Export) {
	t.Helper()
	byKind := map[string]trace.Counters{}
	for _, s := range ex.Samples {
		k := byKind[s.Kind]
		k.Rounds += s.Rounds
		k.Messages += s.Messages
		k.Words += s.Words
		byKind[s.Kind] = k
	}
	var sum trace.Counters
	for _, k := range byKind {
		sum.Rounds += k.Rounds
		sum.Messages += k.Messages
		sum.Words += k.Words
	}
	if c := ex.Counters; sum.Rounds != c.Rounds || sum.Messages != c.Messages || sum.Words != c.Words {
		t.Fatalf("samples by kind %+v sum to %+v, counters %+v", byKind, sum, c)
	}
	if byKind[trace.KindIdle].Messages != 0 || byKind[trace.KindIdle].Words != 0 {
		t.Fatalf("idle samples carry traffic: %+v", byKind[trace.KindIdle])
	}
}
