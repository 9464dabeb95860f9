package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in Prometheus text exposition
// format v0.0.4. Metric families are emitted in lexical order (counters,
// then gauges, then histograms, then the phase info metric) so output is
// deterministic for a fixed registry state. Histograms emit cumulative
// _bucket{le="..."} series for their non-empty buckets plus +Inf, and
// _sum/_count, all scaled into the exposition unit. A nil registry writes
// nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, name := range sortedNames(r.counters) {
		writeHeader(bw, name, "counter", r.help[name])
		fmt.Fprintf(bw, "%s %d\n", name, r.counters[name].Value())
	}
	for _, name := range sortedNames(r.gauges) {
		writeHeader(bw, name, "gauge", r.help[name])
		fmt.Fprintf(bw, "%s %d\n", name, r.gauges[name].Value())
	}
	for _, name := range sortedNames(r.hists) {
		writeHeader(bw, name, "histogram", r.help[name])
		s := r.hists[name].Snapshot()
		s.Buckets(func(upper, cum int64) {
			fmt.Fprintf(bw, "%s_bucket{le=\"%s\"} %d\n",
				name, labelEscaper.Replace(formatFloat(float64(upper)*s.Scale)), cum)
		})
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
		fmt.Fprintf(bw, "%s_sum %s\n", name, formatFloat(float64(s.Sum)*s.Scale))
		fmt.Fprintf(bw, "%s_count %d\n", name, s.Count)
	}
	if p := r.phase; p.Total > 0 {
		writeHeader(bw, "build_phase_info", "gauge",
			"Current construction phase (value is 1 for the active phase).")
		fmt.Fprintf(bw, "build_phase_info{phase=\"%s\"} 1\n", labelEscaper.Replace(p.Name))
		writeHeader(bw, "build_phases_done", "gauge", "")
		fmt.Fprintf(bw, "build_phases_done %d\n", p.Done)
		writeHeader(bw, "build_phases_total", "gauge", "")
		fmt.Fprintf(bw, "build_phases_total %d\n", p.Total)
	}
	return bw.Flush()
}

func writeHeader(w io.Writer, name, typ, help string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// labelEscaper escapes a label value the way the text exposition format
// does: backslash, double quote and line feed, nothing else.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// formatFloat renders a sample value the way Prometheus expects: shortest
// decimal round-trip representation.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// PromFamily is one metric family seen while parsing an exposition.
type PromFamily struct {
	Type    string // counter, gauge, histogram, or "" if untyped
	Samples int    // sample lines attributed to the family
}

// ParsePrometheus validates Prometheus text exposition format v0.0.4 and
// returns the metric families it declares, keyed by family name. Sample
// lines must look like `name{labels} value [timestamp]` with a valid
// metric name and a float value; histogram series (_bucket/_sum/_count
// suffixes) are attributed to their base family. Used by cmd/promcheck
// and the exposition tests; it is a format checker, not a full client.
func ParsePrometheus(r io.Reader) (map[string]*PromFamily, error) {
	fams := make(map[string]*PromFamily)
	fam := func(name string) *PromFamily {
		f, ok := fams[name]
		if !ok {
			f = &PromFamily{}
			fams[name] = f
		}
		return f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				// Plain comments are legal; only malformed HELP/TYPE are not.
				if len(fields) >= 2 && (fields[1] == "HELP" || fields[1] == "TYPE") {
					return nil, fmt.Errorf("line %d: malformed %s comment", lineNo, fields[1])
				}
				continue
			}
			if !validMetricName(fields[2]) {
				return nil, fmt.Errorf("line %d: invalid metric name %q", lineNo, fields[2])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: TYPE wants a single type", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown type %q", lineNo, fields[3])
				}
				fam(fields[2]).Type = fields[3]
			}
			continue
		}
		name, rest, err := splitSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if !validMetricName(name) {
			return nil, fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return nil, fmt.Errorf("line %d: want value [timestamp], got %q", lineNo, rest)
		}
		if !validSampleValue(fields[0]) {
			return nil, fmt.Errorf("line %d: invalid sample value %q", lineNo, fields[0])
		}
		if len(fields) == 2 {
			if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
				return nil, fmt.Errorf("line %d: invalid timestamp %q", lineNo, fields[1])
			}
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name && fams[trimmed] != nil && fams[trimmed].Type == "histogram" {
				base = trimmed
				break
			}
		}
		fam(base).Samples++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fams, nil
}

// splitSample splits a sample line into its metric name and the remainder
// after the (optional) label set.
func splitSample(line string) (name, rest string, err error) {
	i := strings.IndexAny(line, "{ \t")
	if i < 0 {
		return "", "", fmt.Errorf("sample without value: %q", line)
	}
	name = line[:i]
	if line[i] != '{' {
		return name, line[i:], nil
	}
	if rest, err = scanLabels(line[i+1:]); err != nil {
		return "", "", err
	}
	return name, rest, nil
}

// scanLabels checks a `key="value",...}` label set whose opening brace is
// already consumed and returns what follows its closing brace. A value is
// a quoted string whose only escapes are \\, \" and \n, so ',' and '}'
// inside one are plain text; a trailing comma is allowed.
func scanLabels(s string) (rest string, err error) {
	for {
		s = strings.TrimLeft(s, " \t")
		if strings.HasPrefix(s, "}") {
			return s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return "", fmt.Errorf("label without '=': %q", s)
		}
		if key := strings.TrimSpace(s[:eq]); !validMetricName(key) {
			return "", fmt.Errorf("invalid label name %q", key)
		}
		s = strings.TrimLeft(s[eq+1:], " \t")
		if !strings.HasPrefix(s, `"`) {
			return "", fmt.Errorf("label value not quoted: %q", s)
		}
		j := 1
		for ; j < len(s) && s[j] != '"'; j++ {
			if s[j] == '\\' {
				if j++; j == len(s) || !strings.ContainsRune(`\"n`, rune(s[j])) {
					return "", fmt.Errorf("invalid escape in label value: %q", s)
				}
			}
		}
		if j == len(s) {
			return "", fmt.Errorf("unterminated label value: %q", s)
		}
		s = strings.TrimLeft(s[j+1:], " \t")
		if !strings.HasPrefix(s, "}") {
			if !strings.HasPrefix(s, ",") {
				return "", fmt.Errorf("unterminated label set: %q", s)
			}
			s = s[1:]
		}
	}
}

func validSampleValue(s string) bool {
	switch s {
	case "+Inf", "-Inf", "NaN":
		return true
	}
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}
