// Package analysis is the project's static-analysis subsystem: a small,
// dependency-free re-implementation of the go/analysis model (the module
// has no network access to golang.org/x/tools, so the framework is built
// on go/ast and go/types alone), a function-level dataflow engine that
// propagates behavioral facts across packages (summary.go, facts.go),
// an intraprocedural CFG constructor with a generic forward dataflow
// solver (cfg.go, dataflow.go), and six domain analyzers that enforce
// invariants the compiler and go vet cannot:
//
//   - ctxflow: context.Context parameters come first, exported *Ctx entry
//     points really take a context, and library internals never mint their
//     own context.Background()/TODO().
//   - locksafe: no simulated-I/O call runs while a lock is held — even
//     when the I/O hides behind a helper, via the PerformsIO fact. It
//     reads lockorder's path-sensitive must-held lockset; copies of
//     lock-bearing structs are go vet's copylocks check.
//   - floatcmp: no ==/!= between two non-constant floats (similarity
//     scores) outside the approved internal/geom and internal/vector
//     epsilon-helper packages.
//   - hotalloc: every function reachable from a //rstknn:hotpath root is
//     transitively allocation-free — appends need a capacity proof, and
//     cross-package calls are judged by the callee's Allocates fact.
//   - errlost: error results in internal/core, internal/storage, and
//     internal/iurtree are never dropped or shadowed away.
//   - lockorder: per-function lock-acquisition sequences fold into a
//     module-wide lock-order graph via the LockClasses/LockPairs facts;
//     ordering cycles and double-acquisition on a path are flagged.
//
// Analyzers run under "go vet -vettool=$(go build -o /tmp/rstknn-lint
// ./cmd/rstknn-lint)" via the unitchecker protocol (see vet.go) and under
// the in-repo analysistest harness (see analysistest/).
//
// # Directives
//
// A finding can be suppressed where the flagged pattern is intentional:
//
//	//rstknn:allow <analyzer>[,<analyzer>...] [reason...]
//
// The directive applies to the line it trails, to the line directly below
// it, or — when it appears in a function's doc comment — to the whole
// function. A reason is not parsed but should always be given; it is the
// audit trail for every exception.
//
// A second directive marks hot-path roots for hotalloc:
//
//	//rstknn:hotpath [reason...]
//
// placed in a function's doc comment. The function and everything
// statically reachable from it must be allocation-free.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the check to one package, reporting findings on pass.
	Run func(*Pass) error
}

// Diagnostic is one finding of an analyzer.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts holds the package's dataflow summaries plus the facts of its
	// import closure (see summary.go). Shared across the analyzers of
	// one unit; computed from local evidence alone when the driver
	// supplies no imported facts.
	Facts *PkgFacts

	// Report receives every non-suppressed diagnostic.
	Report func(Diagnostic)

	allow      *directiveIndex
	suppressed int
}

// NewPass assembles a pass over a type-checked package, indexing the
// package's allow directives so Reportf can honor them. facts may be nil,
// in which case the package is summarized without imported facts
// (cross-package propagation disabled).
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts *PkgFacts, report func(Diagnostic)) *Pass {
	if facts == nil {
		facts = Summarize(fset, files, pkg, info, nil)
	}
	return &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Facts:     facts,
		Report:    report,
		allow:     indexDirectives(fset, files),
	}
}

// Reportf reports a finding at pos unless an allow directive for this
// analyzer covers it; suppressed findings are counted for the JSON
// report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.allow.allows(p.Analyzer.Name, p.Fset.Position(pos)) {
		p.suppressed++
		return
	}
	p.Report(Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Suppressed returns how many findings //rstknn:allow directives
// silenced during the pass.
func (p *Pass) Suppressed() int { return p.suppressed }

// SourceFiles returns the pass's files excluding _test.go files. The
// domain analyzers enforce library contracts; tests may legitimately poke
// at raw reads, exact floats, and background contexts.
func (p *Pass) SourceFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		name := p.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// All returns every domain analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{CtxFlow, LockSafe, FloatCmp, HotAlloc, ErrLost, LockOrder}
}

// ------------------------------------------------------------------
// Allow directives

const directivePrefix = "rstknn:allow"

// directiveIndex records which analyzers are allowed on which lines.
type directiveIndex struct {
	// byLine maps filename -> line -> analyzer names allowed there.
	byLine map[string]map[int][]string
	// spans are whole-function exemptions from doc-comment directives.
	spans []directiveSpan
}

type directiveSpan struct {
	file      string
	from, to  int
	analyzers []string
}

// indexDirectives scans every comment of every file for allow directives.
func indexDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{byLine: make(map[string]map[int][]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := idx.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					idx.byLine[pos.Filename] = lines
				}
				// The directive covers its own line (trailing form) and
				// the next line (preceding form).
				lines[pos.Line] = append(lines[pos.Line], names...)
				lines[pos.Line+1] = append(lines[pos.Line+1], names...)
			}
		}
		// Doc-comment directives cover the whole declaration.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Doc != nil {
				var names []string
				for _, c := range fd.Doc.List {
					if n, ok := parseDirective(c.Text); ok {
						names = append(names, n...)
					}
				}
				if len(names) > 0 {
					from := fset.Position(fd.Pos())
					to := fset.Position(fd.End())
					idx.spans = append(idx.spans, directiveSpan{
						file: from.Filename, from: from.Line, to: to.Line, analyzers: names,
					})
				}
			}
		}
	}
	return idx
}

// parseDirective extracts the analyzer names from an allow directive
// comment, reporting whether the comment is one.
func parseDirective(text string) ([]string, bool) {
	body, ok := strings.CutPrefix(text, "//"+directivePrefix)
	if !ok {
		return nil, false
	}
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return nil, false
	}
	return strings.Split(fields[0], ","), true
}

func (idx *directiveIndex) allows(analyzer string, pos token.Position) bool {
	if lines, ok := idx.byLine[pos.Filename]; ok {
		for _, name := range lines[pos.Line] {
			if name == analyzer {
				return true
			}
		}
	}
	for _, sp := range idx.spans {
		if sp.file != pos.Filename || pos.Line < sp.from || pos.Line > sp.to {
			continue
		}
		for _, name := range sp.analyzers {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}
