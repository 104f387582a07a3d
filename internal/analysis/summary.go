package analysis

// The function-level dataflow engine. Summarize builds an intra-package
// call graph over the typed ASTs of one package, scans every function
// body for behavioral evidence (allocation sites, simulated-I/O calls,
// capacity-backed returns), and propagates the resulting properties to
// a fixed point across the call graph — consulting the FactStore of
// imported packages at every cross-package call, so the properties are
// transitive across the whole module (facts ride the unitchecker .vetx
// files, see facts.go).
//
// Two annotations steer the analyzers built on top:
//
//	//rstknn:hotpath [reason]       (function doc comment)
//	    marks a hot-path root: hotalloc requires the function and
//	    everything statically reachable from it to be allocation-free.
//	//rstknn:allow hotalloc <why>   clears an allocation site — and the
//	    Allocates fact, so blessed warm-up growth does not taint callers.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// hotpathPrefix marks hot-path root functions in doc comments.
const hotpathPrefix = "rstknn:hotpath"

// allocSite is one piece of in-body allocation evidence.
type allocSite struct {
	pos token.Pos
	msg string
	// allowed records an //rstknn:allow hotalloc covering the site: the
	// site is still reported through Reportf (which counts the
	// suppression) but does not set the Allocates fact.
	allowed bool
}

// callSite is one statically resolved outgoing call.
type callSite struct {
	pos    token.Pos
	callee *types.Func
}

// FuncNode is one function of the analyzed package in the call graph.
type FuncNode struct {
	Obj     *types.Func
	Decl    *ast.FuncDecl
	Summary *FuncSummary
	// Hot marks a //rstknn:hotpath root.
	Hot bool

	sites []allocSite
	calls []callSite
	// locks is the solved lockset walk (nil when the body acquires no
	// lock), shared by the lockorder and locksafe passes.
	locks *lockScan
}

// PkgFacts bundles one package's dataflow results with the facts of its
// import closure. One PkgFacts is computed per compilation unit and
// shared by every analyzer pass over it.
type PkgFacts struct {
	fset     *token.FileSet
	pkg      *types.Package
	imported *FactStore
	own      map[*types.Func]*FuncNode
}

// Node returns the package's call-graph node for fn (origin-normalized
// for generic instantiations), or nil for foreign functions.
func (pf *PkgFacts) Node(fn *types.Func) *FuncNode {
	if pf == nil || fn == nil {
		return nil
	}
	return pf.own[fn.Origin()]
}

// SummaryOf returns the effective summary of fn: the local call-graph
// node's for package functions, the imported fact for foreign ones, nil
// when nothing is known.
func (pf *PkgFacts) SummaryOf(fn *types.Func) *FuncSummary {
	if pf == nil || fn == nil {
		return nil
	}
	if n := pf.Node(fn); n != nil {
		return n.Summary
	}
	return pf.imported.LookupFunc(fn)
}

// HotRoots returns the package's //rstknn:hotpath root nodes in source
// order.
func (pf *PkgFacts) HotRoots() []*FuncNode {
	var roots []*FuncNode
	for _, n := range pf.own {
		if n.Hot {
			roots = append(roots, n)
		}
	}
	sortNodes(roots)
	return roots
}

// Nodes returns every call-graph node in source order.
func (pf *PkgFacts) Nodes() []*FuncNode {
	out := make([]*FuncNode, 0, len(pf.own))
	for _, n := range pf.own {
		out = append(out, n)
	}
	sortNodes(out)
	return out
}

func sortNodes(ns []*FuncNode) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j].Decl.Pos() < ns[j-1].Decl.Pos(); j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

// ExportStore returns the facts to publish for this package: every
// imported fact (so facts flow transitively through the import graph)
// plus every interesting summary of the package itself.
func (pf *PkgFacts) ExportStore() *FactStore {
	out := NewFactStore()
	out.Merge(pf.imported)
	for fn, n := range pf.own {
		if n.Summary.interesting() {
			out.add(FuncKey(fn), n.Summary)
		}
	}
	return out
}

// AllocVerdict reports whether calling fn may allocate, with the reason:
// the local or imported summary when one exists, the stdlib assumption
// table otherwise. Unknown callees (no body, no fact — e.g. dynamic
// interface dispatch resolved to nothing) return false: the engine only
// reports what it can positively attribute.
func (pf *PkgFacts) AllocVerdict(fn *types.Func) (bool, string) {
	if s := pf.SummaryOf(fn); s != nil {
		if s.Allocates {
			why := s.AllocWhy
			if why == "" {
				why = "may allocate"
			}
			return true, why
		}
		return false, ""
	}
	return assumedAllocating(fn)
}

// IOVerdict mirrors AllocVerdict for simulated node/blob I/O.
func (pf *PkgFacts) IOVerdict(fn *types.Func) (bool, string) {
	if s := pf.SummaryOf(fn); s != nil && s.PerformsIO {
		why := s.IOWhy
		if why == "" {
			why = "performs simulated I/O"
		}
		return true, why
	}
	return false, ""
}

// capBacked reports whether fn's result carries a capacity proof.
func (pf *PkgFacts) capBacked(fn *types.Func) bool {
	if s := pf.SummaryOf(fn); s != nil {
		return s.CapBacked
	}
	return false
}

// ------------------------------------------------------------------
// Stdlib assumptions
//
// Standard-library packages are not analyzed for facts (the go command
// invokes the tool on them fact-only and they are far too big to be
// worth it), so hot-path calls into them use a fixed table: packages
// whose exported API routinely allocates (fmt and reflect above all —
// their mere argument passing boxes) are assumed allocating; everything
// else — math, sync/atomic, and friends — is assumed clean. The table
// is deliberately a deny-list: the engine flags what it can positively
// attribute and stays silent on the unknown.

var allocAssumedPkgs = map[string]bool{
	"bufio": true, "bytes": true, "encoding/binary": true,
	"encoding/json": true, "errors": true, "fmt": true, "io": true,
	"log": true, "os": true, "reflect": true, "regexp": true,
	"sort": true, "strconv": true, "strings": true, "time": true,
}

// allocAssumedExempt lists members of assumed-allocating packages that
// are known not to allocate. The binary.ByteOrder getters are pure
// loads (the codecs read every fixed-width field through them); the
// method key is package.MethodName, receiver type elided.
var allocAssumedExempt = map[string]bool{
	"sort.Search":            true,
	"encoding/binary.Uint16": true,
	"encoding/binary.Uint32": true,
	"encoding/binary.Uint64": true,
}

func assumedAllocating(fn *types.Func) (bool, string) {
	if fn == nil || fn.Pkg() == nil {
		return false, ""
	}
	path := fn.Pkg().Path()
	if allocAssumedExempt[path+"."+fn.Name()] {
		return false, ""
	}
	if allocAssumedPkgs[path] {
		return true, fmt.Sprintf("package %s is assumed allocating", path)
	}
	return false, ""
}

// ------------------------------------------------------------------
// Summarize

// Summarize computes the dataflow summary of one type-checked package.
// imported holds the facts of the package's import closure (nil for
// none — cross-package propagation is then disabled and only local
// evidence is seen).
func Summarize(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, imported *FactStore) *PkgFacts {
	if imported == nil {
		imported = NewFactStore()
	}
	pf := &PkgFacts{
		fset:     fset,
		pkg:      pkg,
		imported: imported,
		own:      make(map[*types.Func]*FuncNode),
	}
	dirs := indexDirectives(fset, files)

	// Pass 1: collect declarations.
	for _, f := range files {
		name := fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &FuncNode{
				Obj:     obj,
				Decl:    fd,
				Hot:     hasHotpathDirective(fd),
				Summary: &FuncSummary{Func: funcDisplay(obj, pkg)},
			}
			pf.own[obj] = node
		}
	}

	// Pass 2: per-function evidence (needs every decl known so local
	// provenness can consult in-package capacity providers; capacity
	// facts reach a fixed point in pass 3, so the site scan runs after).
	for _, n := range pf.own {
		collectCallsAndLocals(pf, n, info)
	}

	// Pass 3: capacity-backed fixed point, then the site scan that
	// depends on it, then the behavioral fixed point.
	pf.fixCapBacked(info)
	for _, n := range pf.own {
		scanSites(pf, n, info, dirs)
		scanBehavior(pf, n, info)
	}
	pf.fixBehavior()

	// Pass 4: the path-sensitive lock-order facts. They run CFG
	// dataflow per function (see lockorder.go) and consult the
	// behavioral facts fixed above.
	pf.fixLockOrder(info)
	return pf
}

// hasHotpathDirective reports a //rstknn:hotpath doc-comment directive.
func hasHotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//"+hotpathPrefix)
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true
		}
	}
	return false
}

// funcDisplay renders fn for diagnostics: Recv.Name / Name for local
// functions, the import path-qualified form for foreign ones.
func funcDisplay(fn *types.Func, from *types.Package) string {
	fn = fn.Origin()
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			recv = named.Obj().Name() + "."
		}
	}
	if fn.Pkg() != nil && fn.Pkg() != from {
		return fn.Pkg().Path() + "." + recv + fn.Name()
	}
	return recv + fn.Name()
}

// staticCallee resolves the called function of a call expression, or nil
// for builtins, conversions, func values, and interface dispatch.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			// Interface dispatch has no static callee.
			recv := sel.Recv()
			if types.IsInterface(recv) {
				return nil
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn.Origin()
			}
			return nil
		}
		// Package-qualified function (pkg.Fn).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}

// collectCallsAndLocals records the node's resolved outgoing calls and
// the raw assignment structure its capacity proofs are built from.
func collectCallsAndLocals(pf *PkgFacts, n *FuncNode, info *types.Info) {
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := staticCallee(info, call); fn != nil {
			n.calls = append(n.calls, callSite{pos: call.Pos(), callee: fn})
		}
		return true
	})
}

// ------------------------------------------------------------------
// Capacity proofs
//
// hotalloc accepts an append when the destination slice provably has
// reserved capacity or follows the amortized self-append idiom:
//
//   - x = append(x, ...) reuses (and amortizedly grows) x's backing;
//   - the slice originates from make([]T, 0, n), a three-index
//     reslice, a [:0] reslice, or a call to a CapBacked function (an
//     arena carve), tracked through chains of local assignments.

// provenExpr reports whether e carries a capacity proof. proven may be
// nil (no local tracking).
func provenExpr(pf *PkgFacts, info *types.Info, e ast.Expr, proven map[*types.Var]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "make":
					return len(e.Args) == 3 // explicit capacity
				case "append":
					return len(e.Args) > 0 && provenExpr(pf, info, e.Args[0], proven)
				}
				return false
			}
		}
		if fn := staticCallee(info, e); fn != nil {
			return pf.capBacked(fn)
		}
	case *ast.SliceExpr:
		if e.Slice3 {
			return true
		}
		// x[:0] / x[0:0]: reuse of existing backing (amortized pattern).
		if e.High != nil {
			if tv, ok := info.Types[e.High]; ok && tv.Value != nil && tv.Value.String() == "0" {
				return true
			}
		}
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && proven != nil {
			return proven[v]
		}
	}
	return false
}

// buildProven computes the function's proven-local set: a variable is
// proven when every assignment to it is a proven expression or a
// self-append. The fixed point starts optimistic and only lowers, so
// chains (v2 := v1) and loops converge.
func buildProven(pf *PkgFacts, n *FuncNode, info *types.Info) map[*types.Var]bool {
	type assign struct {
		v   *types.Var
		rhs ast.Expr // nil marks an unanalyzable assignment (tuple, range, ...)
	}
	var assigns []assign
	seen := make(map[*types.Var]bool)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		var v *types.Var
		if d, ok := info.Defs[id].(*types.Var); ok {
			v = d
		} else if u, ok := info.Uses[id].(*types.Var); ok {
			v = u
		}
		if v == nil || !isSliceType(v.Type()) {
			return
		}
		seen[v] = true
		assigns = append(assigns, assign{v: v, rhs: rhs})
	}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					record(s.Lhs[i], s.Rhs[i])
				}
			} else {
				for _, l := range s.Lhs {
					record(l, nil)
				}
			}
		case *ast.RangeStmt:
			if s.Value != nil {
				record(s.Value, nil)
			}
			if s.Key != nil {
				record(s.Key, nil)
			}
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				// Address taken: the variable can be mutated elsewhere.
				record(s.X, nil)
			}
		}
		return true
	})

	proven := make(map[*types.Var]bool, len(seen))
	for v := range seen {
		proven[v] = true
	}
	selfAppend := func(v *types.Var, rhs ast.Expr) bool {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
			return false
		}
		arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		return ok && info.Uses[arg] == v
	}
	for changed := true; changed; {
		changed = false
		for _, a := range assigns {
			if !proven[a.v] {
				continue
			}
			if a.rhs == nil {
				proven[a.v] = false
				changed = true
				continue
			}
			if selfAppend(a.v, a.rhs) || provenExpr(pf, info, a.rhs, proven) {
				continue
			}
			proven[a.v] = false
			changed = true
		}
	}
	return proven
}

func isSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// capBackedReturns reports whether every return of the (single-result,
// slice-returning) function is a proven expression.
func capBackedReturns(pf *PkgFacts, n *FuncNode, info *types.Info) bool {
	sig, ok := n.Obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 || !isSliceType(sig.Results().At(0).Type()) {
		return false
	}
	proven := buildProven(pf, n, info)
	any := false
	ok = true
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		ret, isRet := node.(*ast.ReturnStmt)
		if !isRet || !ok {
			return ok
		}
		any = true
		if len(ret.Results) != 1 || !provenExpr(pf, info, ret.Results[0], proven) {
			ok = false
		}
		return true
	})
	return any && ok
}

// fixCapBacked iterates the CapBacked property to a fixed point: carve
// helpers that return another carve helper's result become proven once
// their callee does.
func (pf *PkgFacts) fixCapBacked(info *types.Info) {
	for changed := true; changed; {
		changed = false
		for _, n := range pf.own {
			if n.Summary.CapBacked {
				continue
			}
			if capBackedReturns(pf, n, info) {
				n.Summary.CapBacked = true
				changed = true
			}
		}
	}
}

// ------------------------------------------------------------------
// Allocation sites

// scanSites records the node's in-body allocation evidence. Sites
// covered by //rstknn:allow hotalloc are kept (hotalloc still routes
// them through Reportf so suppressions are counted) but flagged allowed
// so they do not set the Allocates fact.
func scanSites(pf *PkgFacts, n *FuncNode, info *types.Info, dirs *directiveIndex) {
	proven := buildProven(pf, n, info)
	// Appends whose result feeds back into their own destination
	// (x = append(x, ...)) are the amortized-reuse idiom and sanctioned.
	sanctioned := make(map[*ast.CallExpr]bool)
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		as, ok := node.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Rhs {
			call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			if types.ExprString(as.Lhs[i]) == types.ExprString(call.Args[0]) {
				sanctioned[call] = true
			}
		}
		return true
	})

	add := func(pos token.Pos, format string, args ...any) {
		n.sites = append(n.sites, allocSite{
			pos:     pos,
			msg:     fmt.Sprintf(format, args...),
			allowed: dirs.allows(HotAlloc.Name, pf.fset.Position(pos)),
		})
	}

	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.CallExpr:
			scanCallSites(pf, n, info, e, proven, sanctioned, add)
		case *ast.CompositeLit:
			switch info.TypeOf(e).Underlying().(type) {
			case *types.Slice:
				add(e.Pos(), "slice literal allocates its backing array")
			case *types.Map:
				add(e.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if lit, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					add(lit.Pos(), "&%s escapes to the heap", types.ExprString(lit.Type))
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isStringType(info.TypeOf(e)) {
				if tv, ok := info.Types[e.X]; !ok || tv.Value == nil {
					add(e.OpPos, "string concatenation allocates")
				} else if tv, ok := info.Types[e.Y]; !ok || tv.Value == nil {
					add(e.OpPos, "string concatenation allocates")
				}
			}
		case *ast.FuncLit:
			if captured := capturedVar(info, n.Decl, e); captured != "" {
				add(e.Pos(), "closure captures %s; the closure value allocates", captured)
			}
		}
		return true
	})
}

// scanCallSites handles the call-shaped allocation evidence: make/new,
// unproven appends, conversions to interface types, and interface
// boxing of concrete arguments.
func scanCallSites(pf *PkgFacts, n *FuncNode, info *types.Info, call *ast.CallExpr, proven map[*types.Var]bool, sanctioned map[*ast.CallExpr]bool, add func(token.Pos, string, ...any)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(call.Pos(), "make(%s) allocates", types.ExprString(call.Args[0]))
			case "new":
				add(call.Pos(), "new(%s) allocates", types.ExprString(call.Args[0]))
			case "append":
				if !sanctioned[call] && !provenExpr(pf, info, call.Args[0], proven) {
					add(call.Pos(), "append without a capacity proof may grow its backing array")
				}
			}
			return
		}
	}
	// Conversion T(x): boxing when T is an interface.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && boxes(info, call.Args[0]) {
			add(call.Pos(), "conversion to %s boxes a concrete value", types.ExprString(call.Fun))
		}
		return
	}
	// Boxing of concrete arguments into interface parameters. Calls
	// into assumed-allocating packages (fmt above all) are flagged as a
	// whole by the callee verdict, so their arguments are skipped.
	if fn := staticCallee(info, call); fn != nil {
		if yes, _ := assumedAllocating(fn); yes {
			return
		}
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			pt = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		} else if i < sig.Params().Len() {
			pt = sig.Params().At(i).Type()
		}
		if pt != nil && types.IsInterface(pt) && boxes(info, arg) {
			add(arg.Pos(), "passing %s boxes a concrete value into %s", info.TypeOf(arg), pt)
		}
	}
}

// boxes reports whether passing arg to an interface-typed slot
// allocates: a non-constant concrete value that is not pointer-shaped.
func boxes(info *types.Info, arg ast.Expr) bool {
	tv, ok := info.Types[arg]
	if !ok || tv.Value != nil || tv.Type == nil {
		return false
	}
	t := tv.Type
	if t == types.Typ[types.UntypedNil] || types.IsInterface(t) {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: fits the interface word
	}
	return true
}

// capturedVar returns the name of a variable of the enclosing function
// captured by the func literal, or "" when the literal is capture-free
// (a capture-free literal compiles to a static func value — no
// allocation).
func capturedVar(info *types.Info, enclosing *ast.FuncDecl, lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured: declared in the enclosing function, outside the literal.
		if v.Pos() >= enclosing.Pos() && v.Pos() < enclosing.End() &&
			(v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			captured = v.Name()
			return false
		}
		return true
	})
	return captured
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// ------------------------------------------------------------------
// Behavioral evidence and propagation

// scanBehavior records the node's intrinsic I/O evidence and seeds the
// may-allocate fact from its unsuppressed allocation sites.
func scanBehavior(pf *PkgFacts, n *FuncNode, info *types.Info) {
	s := n.Summary
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok && !s.PerformsIO {
			if name, ok := ioReadCall(info, call); ok {
				s.PerformsIO, s.IOWhy = true, "calls "+name
			}
		}
		return !s.PerformsIO
	})
	for _, site := range n.sites {
		if !site.allowed {
			s.Allocates = true
			s.AllocWhy = site.msg + " at " + shortPos(pf.fset, site.pos)
			break
		}
	}
}

func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// fixBehavior propagates Allocates / PerformsIO across the package
// call graph to a fixed point, consulting imported facts and stdlib
// assumptions at every call.
func (pf *PkgFacts) fixBehavior() {
	for changed := true; changed; {
		changed = false
		for _, n := range pf.own {
			s := n.Summary
			for _, c := range n.calls {
				display := funcDisplay(c.callee, pf.pkg)
				if !s.Allocates {
					if yes, _ := pf.AllocVerdict(c.callee); yes {
						s.Allocates = true
						s.AllocWhy = "calls " + display + " (which may allocate)"
						changed = true
					}
				}
				if cs := pf.SummaryOf(c.callee); cs != nil && !s.PerformsIO && cs.PerformsIO {
					s.PerformsIO = true
					s.IOWhy = "calls " + display + " (" + cs.IOWhy + ")"
					changed = true
				}
			}
		}
	}
}
