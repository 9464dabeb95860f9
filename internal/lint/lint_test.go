package lint

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The loader is shared across tests: loaded packages (the module's own,
// type-checked from source, and the standard library's export data) are
// cached per Loader.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { loader, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

var (
	wantLineRe = regexp.MustCompile(`// want (.+)$`)
	wantArgRe  = regexp.MustCompile("`([^`]+)`")
)

type wantEntry struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

// collectWants scans the fixture directory for `// want` comments, keyed by
// (module-root-relative file, line) to match Diagnostic positions.
func collectWants(t *testing.T, l *Loader, dir string) map[string][]*wantEntry {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(l.Root(), abs)
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[string][]*wantEntry)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		file := filepath.ToSlash(filepath.Join(rel, e.Name()))
		for i, line := range strings.Split(string(data), "\n") {
			m := wantLineRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			args := wantArgRe.FindAllStringSubmatch(m[1], -1)
			if len(args) == 0 {
				t.Fatalf("%s:%d: malformed want comment %q", file, i+1, line)
			}
			key := posKey(file, i+1)
			for _, a := range args {
				wants[key] = append(wants[key], &wantEntry{re: regexp.MustCompile(a[1]), raw: a[1]})
			}
		}
	}
	return wants
}

func posKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// runFixture runs the named analyzers over one fixture package and checks the
// findings against its // want comments: every finding must match a want on
// its line, and every want must be hit.
func runFixture(t *testing.T, fixture string, names []string) {
	t.Helper()
	l := sharedLoader(t)
	dir := filepath.Join("testdata", "src", fixture)
	var analyzers []*Analyzer
	for _, a := range Analyzers() {
		if slices.Contains(names, a.Name) {
			analyzers = append(analyzers, a)
		}
	}
	if len(analyzers) != len(names) {
		t.Fatalf("analyzers %v: only %d known", names, len(analyzers))
	}
	findings, err := RunDirs(l, []string{dir}, analyzers)
	if err != nil {
		t.Fatalf("RunDirs(%s): %v", fixture, err)
	}
	wants := collectWants(t, l, dir)
	for _, d := range findings {
		key := posKey(d.File, d.Line)
		matched := false
		for _, w := range wants[key] {
			if w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding %s:%d:%d %s(%s): %s", d.File, d.Line, d.Col, d.Code, d.Analyzer, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no finding matched want `%s`", key, w.raw)
			}
		}
	}
}

func TestCongestIsolationFixture(t *testing.T) {
	runFixture(t, "isolation", []string{"congestisolation"})
}

func TestMeterAccountFixture(t *testing.T) {
	runFixture(t, "meteraccount", []string{"meteraccount"})
}

// TestMeterAccountDataPlaneExempt pins the dataplane carve-out: the fixture
// is simulator-scoped and allocates in every flagged shape, yet LM002 must
// produce zero findings (the fixture carries no // want comments).
func TestMeterAccountDataPlaneExempt(t *testing.T) {
	runFixture(t, "dataplane", []string{"meteraccount"})
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, "determinism", []string{"determinism"})
}

func TestAnyPayloadFixture(t *testing.T) {
	runFixture(t, "anypayload", []string{"anypayload"})
}

// TestCSRTopoFixture covers the compact-topology accessor surface
// (graph.Topology / graph.CSR): reads of the shared CSR arrays are free for
// LM002, copies into retained vertex state are not, and a body relayed
// through a NeighborRange fan-out loop is copied out once, into scratch.
func TestCSRTopoFixture(t *testing.T) {
	runFixture(t, "csrtopo", []string{"meteraccount"})
}

func TestKindConformanceFixture(t *testing.T) {
	runFixture(t, "kindconformance", []string{"kindconformance"})
}

func TestCodecSymmetryFixture(t *testing.T) {
	runFixture(t, "codecsymmetry", []string{"codecsymmetry"})
}

// TestDirectiveDiagnostics pins the LM000 catalogue: a malformed directive
// occupies its whole source line, so the expectations are explicit here
// instead of // want comments.
func TestDirectiveDiagnostics(t *testing.T) {
	l := sharedLoader(t)
	findings, err := RunDirs(l, []string{filepath.Join("testdata", "src", "directives")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantMsgs := []string{
		"unknown lint directive //lint:meterfree",
		"//lint:waive requires an analyzer name and a reason",
		`//lint:waive names unknown analyzer "nosuch"`,
		"unknown lint directive //lint:frobnicate",
	}
	if len(findings) != len(wantMsgs) {
		t.Fatalf("got %d findings, want %d: %+v", len(findings), len(wantMsgs), findings)
	}
	for i, d := range findings {
		if d.Code != CodeDirectives || d.Analyzer != "directives" {
			t.Errorf("finding %d: got %s(%s), want %s(directives)", i, d.Code, d.Analyzer, CodeDirectives)
		}
		if d.Message != wantMsgs[i] {
			t.Errorf("finding %d: got message %q, want %q", i, d.Message, wantMsgs[i])
		}
		if !strings.HasSuffix(d.File, "testdata/src/directives/directives.go") {
			t.Errorf("finding %d: unexpected file %q", i, d.File)
		}
	}
}

func TestAnalyzerCodesUnique(t *testing.T) {
	seen := make(map[string]string)
	for _, a := range Analyzers() {
		if prev, ok := seen[a.Code]; ok {
			t.Errorf("code %s used by both %s and %s", a.Code, prev, a.Name)
		}
		seen[a.Code] = a.Name
	}
}

// TestWriteText pins the text report: one file:line:col: CODE(analyzer):
// message line per finding, warnings marked, then the summary line; a clean
// run prints only "lowmemlint: clean".
func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	WriteText(&buf, []Diagnostic{
		{File: "x.go", Line: 2, Col: 7, Code: "LM001", Analyzer: "congestisolation", Severity: SeverityError, Message: "m"},
		{File: "y.go", Line: 3, Col: 1, Code: "LM007", Analyzer: "kindconformance", Severity: SeverityWarning, Message: "w"},
	})
	want := "x.go:2:7: LM001(congestisolation): m\n" +
		"y.go:3:1: LM007(kindconformance): w [warning]\n" +
		"lowmemlint: 2 finding(s)\n"
	if buf.String() != want {
		t.Errorf("WriteText = %q, want %q", buf.String(), want)
	}
	buf.Reset()
	WriteText(&buf, nil)
	if buf.String() != "lowmemlint: clean\n" {
		t.Errorf("WriteText(nil) = %q, want the clean line", buf.String())
	}
}

func TestExpandSkipsTestdata(t *testing.T) {
	dirs, err := Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("Expand walked into %s", d)
		}
	}
	if len(dirs) != 1 || dirs[0] != "." {
		t.Errorf("Expand(./...) from internal/lint = %v, want [.]", dirs)
	}
}
