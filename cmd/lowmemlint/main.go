// Command lowmemlint runs the repository's model-invariant static analyzer
// suite (internal/lint) over the given package patterns.
//
// Usage:
//
//	lowmemlint [-list] [-graph FILE] [patterns]
//
// Patterns default to ./internal/...; a pattern ending in /... walks the
// tree. Every run applies every analyzer; a finding is waived in place with
// a //lint:waive <analyzer> <reason> comment (see internal/lint).
//
// Flags:
//
//	-graph FILE  write the lowmemlint/protocol-v2 kind graph as JSON and exit
//	-list        list analyzers and exit
//
// The graph is built from the whole-repo send/receive extraction that backs
// LM007/LM008 and does not run the analyzers.
//
// Exit-code contract: 0 when the run is clean (or the graph was written), 1
// when there are findings, and 2 when flags are invalid or packages fail to
// load.
package main

import (
	"flag"
	"fmt"
	"os"

	"lowmemroute/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("lowmemlint", flag.ContinueOnError)
	var (
		graphJSON = fs.String("graph", "", "write the protocol kind graph as JSON to this file and exit")
		list      = fs.Bool("list", false, "list analyzers and exit")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%s  %-16s %s\n", a.Code, a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./internal/..."}
	}
	dirs, err := lint.Expand(patterns)
	if err != nil {
		return fail(err)
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		return fail(err)
	}
	if *graphJSON != "" {
		return writeGraph(loader, dirs, *graphJSON)
	}

	findings, err := lint.RunDirs(loader, dirs, lint.Analyzers())
	if err != nil {
		return fail(err)
	}
	lint.WriteText(os.Stdout, findings)
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// writeGraph builds the whole-repo protocol kind graph and writes it as JSON
// to path. Returns 0 on success, 2 on any failure.
func writeGraph(loader *lint.Loader, dirs []string, path string) int {
	g, err := lint.BuildProtocolGraph(loader, dirs)
	if err != nil {
		return fail(err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fail(err)
	}
	if err := g.WriteJSON(f); err != nil {
		f.Close()
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	fmt.Printf("lowmemlint: wrote protocol graph (%d package(s)) to %s\n", len(g.Packages), path)
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "lowmemlint:", err)
	return 2
}
