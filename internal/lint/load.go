package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the unit every analyzer
// operates on. Files holds the non-test sources with comments attached.
type Package struct {
	Path  string // import path, e.g. lowmemroute/internal/congest
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of the enclosing module using only
// the standard library: module-local import paths are resolved against the
// module root; everything else (the standard library) is delegated to the
// gc importer, which reads the compiler's export data (located with
// `go list -export`) instead of type-checking the standard library from
// source. Loaded packages are cached, so a whole-tree walk type-checks each
// package once.
type Loader struct {
	Fset   *token.FileSet
	root   string // module root directory (the one holding go.mod)
	module string // module path from go.mod
	std    types.Importer
	pkgs   map[string]*loadEntry // keyed by import path
}

type loadEntry struct {
	pkg *Package
	err error
}

// NewLoader locates the module root at or above dir and returns a loader
// rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		root = parent
	}
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:   fset,
		root:   root,
		module: module,
		std:    importer.ForCompiler(fset, "gc", nil),
		pkgs:   make(map[string]*loadEntry),
	}, nil
}

// Root returns the module root directory.
func (l *Loader) Root() string { return l.root }

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Import implements types.Importer: module-local paths load from source under
// the module root, all others fall through to the gc export-data importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		p, err := l.LoadDir(filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module))))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// matchFile reports whether the named file participates in the build for the
// host platform: _test.go files are out, and //go:build constraints plus
// _GOOS/_GOARCH filename suffixes are evaluated by go/build with the default
// context, so tag-excluded files are skipped exactly as `go build` would.
// Files whose constraints cannot be parsed are skipped rather than failing
// the whole package: the go tool would not build them either.
func matchFile(dir, name string) bool {
	if strings.HasSuffix(name, "_test.go") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return err == nil && ok
}

// LoadDir parses and type-checks the package in dir (non-test files only).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module root %s", dir, l.root)
	}
	importPath := l.module
	if rel != "." {
		importPath = l.module + "/" + filepath.ToSlash(rel)
	}
	if e, ok := l.pkgs[importPath]; ok {
		return e.pkg, e.err
	}
	// Reserve the slot first so an accidental import cycle errors out
	// instead of recursing forever.
	l.pkgs[importPath] = &loadEntry{err: fmt.Errorf("lint: import cycle through %s", importPath)}
	pkg, err := l.load(importPath, abs)
	l.pkgs[importPath] = &loadEntry{pkg: pkg, err: err}
	return pkg, err
}

func (l *Loader) load(importPath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || !matchFile(dir, n) {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	return &Package{Path: importPath, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// Expand resolves command-line patterns to package directories. A pattern
// ending in "/..." walks the tree below its prefix; anything else names a
// single directory. Directories named "testdata", hidden directories, and
// directories without non-test Go files are skipped during walks.
func Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if suffix, ok := strings.CutSuffix(pat, "/..."); ok {
			rootDir := filepath.Clean(suffix)
			err := filepath.WalkDir(rootDir, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != rootDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		d := filepath.Clean(pat)
		if !hasGoFiles(d) {
			return nil, fmt.Errorf("lint: no Go files in %s", d)
		}
		add(d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && matchFile(dir, n) {
			return true
		}
	}
	return false
}
