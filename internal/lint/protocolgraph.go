package lint

import (
	"encoding/json"
	"go/types"
	"io"
	"sort"
)

// Protocol graph export: the whole-repo send/receive kind graph recovered by
// the LM007 extraction, serialized as versioned JSON (the CI-gated golden
// artifact). Records carry no file or line: a kind is keyed by package, name
// and value, and a send or match site by its enclosing function, transport
// and words expression or match form, so an edit that only moves code does
// not change the graph. Sites keep one record each, in source order, so a
// function with two identical sends lists two.

// ProtocolSchema identifies the JSON layout of the exported graph. v2 dropped
// the file and line fields of kinds and sites.
const ProtocolSchema = "lowmemlint/protocol-v2"

// ProtocolGraph is the exported form of the kind graph.
type ProtocolGraph struct {
	Schema   string            `json:"schema"`
	Packages []ProtocolPackage `json:"packages"`
}

// ProtocolPackage groups the kinds declared by one package.
type ProtocolPackage struct {
	Package string         `json:"package"`
	Kinds   []ProtocolKind `json:"kinds"`
}

// ProtocolKind is one PayloadKind constant with its send and match sites.
type ProtocolKind struct {
	Name    string         `json:"name"`
	Value   uint64         `json:"value"`
	Sends   []ProtocolSite `json:"sends"`
	Matches []ProtocolSite `json:"matches"`
}

// ProtocolSite is one send or match site.
type ProtocolSite struct {
	Func      string `json:"func"`
	Transport string `json:"transport"`
	Relay     bool   `json:"relay,omitempty"`
	Words     string `json:"words,omitempty"`
	Form      string `json:"form,omitempty"`
}

// BuildProtocolGraph extracts the kind graph from every package directory in
// dirs (as produced by Expand) using the shared loader.
func BuildProtocolGraph(l *Loader, dirs []string) (*ProtocolGraph, error) {
	g := &ProtocolGraph{Schema: ProtocolSchema}
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pp := extractProtocol(pkg)
		if len(pp.kinds) == 0 {
			continue
		}
		g.Packages = append(g.Packages, buildPackageGraph(pp))
	}
	sort.Slice(g.Packages, func(i, j int) bool { return g.Packages[i].Package < g.Packages[j].Package })
	return g, nil
}

// buildPackageGraph lists each kind's send and match sites in source order:
// positions grow with file name (a package's files are parsed in sorted
// order) and then with offset.
func buildPackageGraph(pp *pkgProtocol) ProtocolPackage {
	sort.SliceStable(pp.sends, func(i, j int) bool { return pp.sends[i].pos < pp.sends[j].pos })
	sort.SliceStable(pp.matches, func(i, j int) bool { return pp.matches[i].pos < pp.matches[j].pos })
	out := ProtocolPackage{Package: pp.pkg.Path}
	for _, kc := range pp.kinds {
		pk := ProtocolKind{Name: kc.name, Value: kc.val, Sends: []ProtocolSite{}, Matches: []ProtocolSite{}}
		for _, s := range pp.sends {
			if s.kind != kc {
				continue
			}
			ps := ProtocolSite{Func: s.enclosing, Transport: s.transport, Relay: s.relay}
			if s.wordsExpr != nil {
				ps.Words = types.ExprString(s.wordsExpr)
			}
			pk.Sends = append(pk.Sends, ps)
		}
		for _, m := range pp.matches {
			if m.kind == kc {
				pk.Matches = append(pk.Matches, ProtocolSite{Func: m.enclosing, Transport: m.transport, Form: m.form})
			}
		}
		out.Kinds = append(out.Kinds, pk)
	}
	return out
}

// WriteJSON writes the graph as indented JSON with a trailing newline.
func (g *ProtocolGraph) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}
