// Package analysistest runs an analyzer over a fixture package under
// testdata/src and checks its diagnostics against // want comments, in
// the style of golang.org/x/tools/go/analysis/analysistest (which this
// module cannot depend on).
//
// A fixture line expecting a diagnostic carries a trailing comment
//
//	s.GetTracked(0, nil) // want `called while holding a lock`
//	a == b               // want "exact =="
//
// where the quoted or backquoted string is a regexp that must match the
// diagnostic message reported on that line. Lines without a want comment
// must stay diagnostic-free. Fixtures are type-checked against the real
// standard library from source (GOROOT), so they may import stdlib
// packages — and other fixture packages: an import path that exists under
// testdata/src resolves to that fixture, which is loaded, type-checked,
// and summarized so its facts flow into the root package exactly as the
// vet driver propagates them between compilation units. The package path
// handed to the type checker is the fixture's directory path relative to
// testdata/src, which lets a fixture impersonate e.g. rstknn/internal/geom
// to exercise package-based exemptions.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"rstknn/internal/analysis"
)

// Run analyzes the fixture package at testdata/src/<pkgPath> with a and
// reports every mismatch between actual diagnostics and want comments as
// a test error. Fixture dependencies contribute facts.
func Run(t *testing.T, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	got, fset, files := diagnose(t, a, pkgPath, true)
	wants := collectWants(t, fset, files)
	checkDiagnostics(t, fset, got, wants)
}

// Diagnostics runs a over the fixture package and returns the raw
// diagnostics, ignoring want comments. withFacts=false drops the facts
// of fixture dependencies, disabling cross-package propagation — for
// tests proving a finding is only visible through facts.
func Diagnostics(t *testing.T, a *analysis.Analyzer, pkgPath string, withFacts bool) []analysis.Diagnostic {
	t.Helper()
	got, _, _ := diagnose(t, a, pkgPath, withFacts)
	return got
}

func diagnose(t *testing.T, a *analysis.Analyzer, pkgPath string, withFacts bool) ([]analysis.Diagnostic, *token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	loader := newLoader(fset)
	lp, err := loader.load(pkgPath)
	if err != nil {
		t.Fatal(err)
	}

	var facts *analysis.PkgFacts
	if withFacts {
		facts = analysis.Summarize(fset, lp.files, lp.pkg, lp.info, loader.facts)
	}
	var got []analysis.Diagnostic
	pass := analysis.NewPass(a, fset, lp.files, lp.pkg, lp.info, facts, func(d analysis.Diagnostic) {
		got = append(got, d)
	})
	if err := a.Run(pass); err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, pkgPath, err)
	}
	return got, fset, lp.files
}

// loader type-checks fixture packages, resolving imports from
// testdata/src first and the standard library (from source) second, and
// accumulates the facts of every fixture it loads — the test-harness
// analogue of the vet driver's .vetx plumbing.
type loader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*loadedPkg
	facts *analysis.FactStore
}

type loadedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newLoader(fset *token.FileSet) *loader {
	return &loader{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  make(map[string]*loadedPkg),
		facts: analysis.NewFactStore(),
	}
}

// Import implements types.Importer for the type checker's sake.
func (l *loader) Import(path string) (*types.Package, error) {
	dir := filepath.Join("testdata", "src", filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		lp, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return lp.pkg, nil
	}
	return l.std.Import(path)
}

// load parses, type-checks, and summarizes the fixture at
// testdata/src/<path> (dependencies first, recursively, through Import).
func (l *loader) load(path string) (*loadedPkg, error) {
	if lp, ok := l.pkgs[path]; ok {
		return lp, nil
	}
	dir := filepath.Join("testdata", "src", filepath.FromSlash(path))
	files, err := parseDir(l.fset, dir)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tc := &types.Config{Importer: l}
	pkg, err := tc.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %v", dir, err)
	}
	lp := &loadedPkg{pkg: pkg, files: files, info: info}
	l.pkgs[path] = lp
	// Dependencies loaded above (recursively) have already merged their
	// facts, so this fixture's summaries see them.
	pf := analysis.Summarize(l.fset, files, pkg, info, l.facts)
	l.facts.Merge(pf.ExportStore())
	return lp, nil
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no fixture files in %s", dir)
	}
	return files, nil
}

// want is one expectation: a regexp that must match a diagnostic on its
// line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantPattern extracts the quoted ("...") or backquoted (`...`) regexps
// from a want comment.
var wantPattern = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				matches := wantPattern.FindAllStringSubmatch(body, -1)
				if len(matches) == 0 {
					t.Errorf("%s: malformed want comment %q", pos, c.Text)
					continue
				}
				for _, m := range matches {
					expr := m[1]
					if m[2] != "" {
						expr = m[2]
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, expr, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

func checkDiagnostics(t *testing.T, fset *token.FileSet, got []analysis.Diagnostic, wants []*want) {
	t.Helper()
	sort.Slice(got, func(i, j int) bool { return got[i].Pos < got[j].Pos })
	for _, d := range got {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}
