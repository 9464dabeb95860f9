// Package lint implements lowmemlint, a stdlib-only static analyzer suite
// that enforces the repository's model-level resource invariants at build
// time: CONGEST vertex isolation (LM001), meter accounting of per-vertex
// allocations (LM002), schedule determinism (LM003), a ban on
// interface-typed payloads on the wire (LM005), sender/receiver PayloadKind
// conformance (LM007), and encode/decode codec symmetry (LM008). Codes LM004
// and LM006 are retired (DESIGN.md §8).
// LM007 and LM008 share the protocol extraction of protocol.go: go/types-driven
// intra-procedural tracking of inbox- and broadcast-derived payloads. See
// DESIGN.md §8 for the mapping from each analyzer to the paper invariant it
// guards, and for the table of which checks catch a seeded violation of each
// rule.
//
// Every run applies every analyzer. A finding is waived in place with one
// comment directive:
//
//	//lint:waive <analyzer> <reason>
//
// A waiver suppresses findings on its own line and on the line directly
// below it (so it can sit above the flagged statement). Malformed directives
// are themselves reported (LM000). A package outside the built-in simulator
// set can opt into the simulator-scoped analyzers with a //lint:simulator
// comment (used by the test fixtures).
package lint

import (
	"fmt"
	"go/token"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding. File is relative to the module root so that
// output is stable across checkouts.
type Diagnostic struct {
	File     string
	Line     int
	Col      int
	Code     string
	Analyzer string
	Severity string // "error" or "warning"
	Message  string
}

// Diagnostic severities. Both fail the run (exit 1): a warning marks a
// finding that is advisory in nature (dead protocol kinds, unresolvable
// payload expressions) rather than a proven invariant violation, but letting
// either rot silently defeats the point of the suite.
const (
	SeverityError   = "error"
	SeverityWarning = "warning"
)

// Analyzer is one check with its own diagnostic code and waiver name.
type Analyzer struct {
	Name string // waiver-facing name, e.g. "determinism"
	Code string // diagnostic code, e.g. "LM003"
	Doc  string // one-line description
	Run  func(*Pass)
}

// Analyzers returns the full suite in diagnostic-code order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerCongestIsolation(),
		analyzerMeterAccount(),
		analyzerDeterminism(),
		analyzerAnyPayload(),
		analyzerKindConformance(),
		analyzerCodecSymmetry(),
	}
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Loader *Loader
	Pkg    *Package

	analyzer *Analyzer
	waivers  []waiver
	out      *[]Diagnostic
}

// Fset returns the shared file set.
func (p *Pass) Fset() *token.FileSet { return p.Loader.Fset }

// Reportf records an error-severity finding at pos unless a matching waiver
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportSeverityf(pos, SeverityError, format, args...)
}

// ReportSeverityf records a finding with an explicit severity at pos unless
// a matching waiver covers it.
func (p *Pass) ReportSeverityf(pos token.Pos, severity string, format string, args ...any) {
	position := p.Loader.Fset.Position(pos)
	file := relPath(p.Loader.root, position.Filename)
	for _, w := range p.waivers {
		if w.analyzer == p.analyzer.Name && w.file == file &&
			(position.Line == w.line || position.Line == w.line+1) {
			return
		}
	}
	*p.out = append(*p.out, Diagnostic{
		File:     file,
		Line:     position.Line,
		Col:      position.Column,
		Code:     p.analyzer.Code,
		Analyzer: p.analyzer.Name,
		Severity: severity,
		Message:  fmt.Sprintf(format, args...),
	})
}

func relPath(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}

// waiver is one parsed //lint:waive directive.
type waiver struct {
	file     string
	line     int
	analyzer string
}

const (
	// CodeDirectives is the diagnostic code for malformed lint directives.
	CodeDirectives = "LM000"
	// directiveAnalyzer is the pseudo-analyzer name attached to LM000.
	directiveAnalyzer = "directives"
)

// scanDirectives parses all //lint: comments of pkg, returning the valid
// waivers and a diagnostic for every malformed directive.
func scanDirectives(l *Loader, pkg *Package, known map[string]bool) ([]waiver, []Diagnostic) {
	var ws []waiver
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		position := l.Fset.Position(pos)
		diags = append(diags, Diagnostic{
			File:     relPath(l.root, position.Filename),
			Line:     position.Line,
			Col:      position.Column,
			Code:     CodeDirectives,
			Analyzer: directiveAnalyzer,
			Severity: SeverityError,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				position := l.Fset.Position(c.Pos())
				file := relPath(l.root, position.Filename)
				verb, rest, _ := strings.Cut(strings.TrimSpace(text), " ")
				rest = strings.TrimSpace(rest)
				switch verb {
				case "simulator":
					// Scope marker, handled by simulatorScoped.
				case "waive":
					name, reason, _ := strings.Cut(rest, " ")
					if name == "" || strings.TrimSpace(reason) == "" {
						report(c.Pos(), "//lint:waive requires an analyzer name and a reason")
						continue
					}
					if !known[name] {
						report(c.Pos(), "//lint:waive names unknown analyzer %q", name)
						continue
					}
					ws = append(ws, waiver{file: file, line: position.Line, analyzer: name})
				default:
					report(c.Pos(), "unknown lint directive //lint:%s", verb)
				}
			}
		}
	}
	return ws, diags
}

// simulatorPkgs are the packages whose code runs (or schedules) simulated
// CONGEST processors; the simulator-scoped analyzers apply to them.
var simulatorPkgs = map[string]bool{
	"congest":      true,
	"treeroute":    true,
	"hopset":       true,
	"core":         true,
	"clusterroute": true,
}

// simulatorScoped reports whether pkg is subject to the simulator-scoped
// analyzers: its import-path base is one of the simulator packages, or a file
// carries the //lint:simulator marker.
func simulatorScoped(pkg *Package) bool {
	if simulatorPkgs[pathBase(pkg.Path)] {
		return true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(strings.TrimPrefix(c.Text, "//lint:")) == "simulator" &&
					strings.HasPrefix(c.Text, "//lint:") {
					return true
				}
			}
		}
	}
	return false
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// RunDirs loads every directory and runs the given analyzers over each
// package, returning all findings sorted by position. Malformed lint
// directives are reported as LM000 regardless of the analyzer selection.
func RunDirs(l *Loader, dirs []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var findings []Diagnostic
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		waivers, dirDiags := scanDirectives(l, pkg, known)
		findings = append(findings, dirDiags...)
		for _, a := range analyzers {
			pass := &Pass{Loader: l, Pkg: pkg, analyzer: a, waivers: waivers, out: &findings}
			a.Run(pass)
		}
	}
	findings = dedupe(findings)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Message < b.Message
	})
	return findings, nil
}

// dedupe drops exact duplicates (e.g. two uses of the same global on one
// line produce one finding).
func dedupe(ds []Diagnostic) []Diagnostic {
	seen := make(map[Diagnostic]bool, len(ds))
	out := ds[:0]
	for _, d := range ds {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

// WriteText writes one line per finding in the canonical
// file:line:col: CODE(analyzer): message form, then a one-line summary.
func WriteText(w io.Writer, findings []Diagnostic) {
	for _, d := range findings {
		mark := ""
		if d.Severity == SeverityWarning {
			mark = " [warning]"
		}
		fmt.Fprintf(w, "%s:%d:%d: %s(%s): %s%s\n", d.File, d.Line, d.Col, d.Code, d.Analyzer, d.Message, mark)
	}
	if len(findings) == 0 {
		fmt.Fprintln(w, "lowmemlint: clean")
		return
	}
	fmt.Fprintf(w, "lowmemlint: %d finding(s)\n", len(findings))
}
