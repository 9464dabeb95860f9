package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestWritePrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("congest_rounds_total").Add(42)
	r.SetHelp("congest_rounds_total", "Simulated CONGEST rounds executed.")
	r.Gauge("congest_queue_depth").Set(7)
	h := r.Histogram("route_lookup_seconds", 1e-9)
	for i := int64(1); i <= 1000; i++ {
		h.Record(i * 1000) // 1µs .. 1ms
	}
	r.SetPhase(Phase{Name: "hopset", Done: 2, Total: 6})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	fams, err := ParsePrometheus(strings.NewReader(out))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, out)
	}
	for _, want := range []string{
		"congest_rounds_total", "congest_queue_depth",
		"route_lookup_seconds", "build_phase_info",
	} {
		f := fams[want]
		if f == nil || f.Samples == 0 {
			t.Errorf("family %q missing or empty (got %+v)", want, f)
		}
	}
	if fams["route_lookup_seconds"].Type != "histogram" {
		t.Errorf("route_lookup_seconds type=%q", fams["route_lookup_seconds"].Type)
	}
	if !strings.Contains(out, "congest_rounds_total 42\n") {
		t.Errorf("counter sample missing:\n%s", out)
	}
	if !strings.Contains(out, `route_lookup_seconds_bucket{le="+Inf"} 1000`) {
		t.Errorf("+Inf bucket missing:\n%s", out)
	}
	if !strings.Contains(out, "# HELP congest_rounds_total Simulated CONGEST rounds executed.\n") {
		t.Errorf("HELP line missing:\n%s", out)
	}
	if !strings.Contains(out, `build_phase_info{phase="hopset"} 1`) {
		t.Errorf("phase info missing:\n%s", out)
	}

	// Deterministic output for a fixed registry state.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("two expositions of the same state differ")
	}
}

func TestParsePrometheusRejectsGarbage(t *testing.T) {
	bad := []string{
		"metric_without_value\n",
		"1badname 3\n",
		"ok{le=\"0.5\" 3\n", // unterminated label set
		"ok not-a-number\n",
		"# TYPE ok flotilla\n",
		"# TYPE ok\n",
		"ok{novalue} 1\n",
	}
	for _, in := range bad {
		if _, err := ParsePrometheus(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
	good := "# random comment\nok_metric 3.5 1700000000\nwith_label{a=\"b\",c=\"d\"} +Inf\n"
	fams, err := ParsePrometheus(strings.NewReader(good))
	if err != nil {
		t.Fatalf("rejected valid input: %v", err)
	}
	if fams["ok_metric"].Samples != 1 || fams["with_label"].Samples != 1 {
		t.Fatalf("families=%+v", fams)
	}
}

// TestParsePrometheusQuotedLabelValues checks that ',' and '}' inside a
// quoted label value are plain text, and that escapes other than \\, \"
// and \n are rejected.
func TestParsePrometheusQuotedLabelValues(t *testing.T) {
	for _, in := range []string{
		`m{a="b,c"} 1`,
		`m{a="x}y",b="z"} 2`,
		`m{a="q\"u\\o\nte",} 3`,
	} {
		fams, err := ParsePrometheus(strings.NewReader(in + "\n"))
		if err != nil {
			t.Errorf("rejected %q: %v", in, err)
		} else if fams["m"] == nil || fams["m"].Samples != 1 {
			t.Errorf("%q: families %+v", in, fams)
		}
	}
	for _, in := range []string{`m{a="b\t"} 1`, `m{a="b} 1`, `m{a="b" c="d"} 1`} {
		if _, err := ParsePrometheus(strings.NewReader(in + "\n")); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

// TestWritePrometheusEscapesLabelValues: a phase name with a comma, a quote,
// a backslash and a line feed is written with the format's escapes and
// parses back.
func TestWritePrometheusEscapesLabelValues(t *testing.T) {
	for name, want := range map[string]string{
		"a,b":         `build_phase_info{phase="a,b"} 1`,
		"x\"y\\z\nw}": `build_phase_info{phase="x\"y\\z\nw}"} 1`,
	} {
		r := NewRegistry()
		r.SetPhase(Phase{Name: name, Done: 1, Total: 2})
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("phase %q: exposition lacks %s:\n%s", name, want, b.String())
		}
		if _, err := ParsePrometheus(strings.NewReader(b.String())); err != nil {
			t.Errorf("phase %q: own exposition rejected: %v", name, err)
		}
	}
}

// FuzzParsePrometheus: ParsePrometheus never panics, and its verdict is
// the conjunction of per-line verdicts: an input is rejected exactly when
// one of its lines, parsed alone, is rejected, and the error names such a
// line. An accepted input attributes every sample line to one family.
func FuzzParsePrometheus(f *testing.F) {
	r := NewRegistry()
	r.Counter("congest_rounds_total").Add(42)
	r.SetHelp("congest_rounds_total", "Simulated CONGEST rounds executed.")
	r.Gauge("congest_queue_depth").Set(-7)
	h := r.Histogram("route_lookup_seconds", 1e-9)
	for i := int64(1); i <= 100; i++ {
		h.Record(i * i * 1000)
	}
	r.SetPhase(Phase{Name: "hopset", Done: 2, Total: 6})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(b.String()))
	f.Add([]byte("# random comment\nok_metric 3.5 1700000000\r\nwith_label{a=\"b\",c=\"d\"} +Inf\n"))
	f.Add([]byte("m{a=\"b,c\"} 1\n"))
	r.SetPhase(Phase{Name: "a,b", Done: 1, Total: 2})
	b.Reset()
	if err := r.WritePrometheus(&b); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(b.String()))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 1<<20 {
			return // past the scanner's line limit: rejected as a whole
		}
		fams, err := ParsePrometheus(bytes.NewReader(data))
		lines := strings.Split(string(data), "\n")
		var bad []int // 1-based numbers of the lines rejected alone
		samples := 0
		for i, line := range lines {
			if _, lerr := ParsePrometheus(strings.NewReader(line)); lerr != nil {
				bad = append(bad, i+1)
			} else if s := strings.TrimSpace(line); s != "" && !strings.HasPrefix(line, "#") {
				samples++
			}
		}
		if err != nil {
			if len(bad) == 0 || !strings.HasPrefix(err.Error(), fmt.Sprintf("line %d:", bad[0])) {
				t.Fatalf("rejected with %v; lines rejected alone: %v", err, bad)
			}
			return
		}
		if len(bad) > 0 {
			t.Fatalf("accepted, but lines %v are rejected alone", bad)
		}
		got := 0
		for _, fam := range fams {
			got += fam.Samples
		}
		if got != samples {
			t.Fatalf("families hold %d samples, input has %d sample lines", got, samples)
		}
	})
}
