package analysis

// lockorder: deadlock-freedom by lock ordering, the lockset discipline
// of Eraser (Savage et al., 1997) applied statically. Every function's
// CFG is solved for its must-held lockset (intersection join: a lock
// counts as held at a merge only if it is held on every path into it);
// each acquisition made while other locks are held contributes
// ordering edges "held => acquired" to a lock-order graph. Per-function
// sequences become package-level and then module-level knowledge
// through two facts on FuncSummary: LockClasses (what a function may
// acquire, transitively) grows edges at call sites made under a held
// lock, and LockPairs (the orderings it may exhibit, transitively)
// assembles the global graph. A cycle in that graph is a potential
// deadlock: two goroutines taking the same locks in opposite orders.
// Acquiring a mutex already held on the same path (same class AND same
// receiver expression) is self-deadlock and flagged directly.
//
// A lock class names a mutex position, not an instance:
// "pkgpath.Type.field" for a mutex field, "pkgpath.Type" for a
// lock-bearing struct locked as a whole (embedded mutex), or
// "pkgpath.var" for a package-level mutex. Distinct instances of one
// class (pool shards, cache shards) intentionally collapse: ordering
// is a property of the code position. Local mutexes get a
// function-scoped class that participates in double-acquire detection
// but never in exported pairs — callers cannot order against a lock
// they cannot see. Same-class edges are not recorded (locking two
// shards of one array is ordered by index, which is beyond a static
// class analysis), so per-class self-cycles cannot false-positive.
//
// Deferred Unlocks deliberately do NOT release the lockset: the lock
// stays held until function exit, so later acquisitions on the path
// still order after it — and a second Lock after `defer mu.Unlock()`
// is still a real self-deadlock.
//
// The walk runs once per function, in the summarizer, and is kept on
// the call-graph node. It also records every call made while the
// must-held lockset is non-empty; locksafe reads those for simulated
// I/O under a lock.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder flags lock-order-graph cycles and double acquisitions.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "fold per-function lock-acquisition sequences into a module-wide lock-order " +
		"graph via facts; flag ordering cycles and double-acquisition on a path",
	Run: runLockOrder,
}

// lockPairSep joins the two classes of an ordering edge in LockPairs.
const lockPairSep = "=>"

// heldLock is one entry of the must-held lockset.
type heldLock struct {
	class string
	expr  string // rendered receiver: distinguishes instances of a class
	local bool
}

// lockEdge is one positioned ordering observation: to was acquired
// while from was held.
type lockEdge struct {
	from, to string
	pos      token.Pos
}

// lockDouble is one same-path re-acquisition of a held mutex.
type lockDouble struct {
	class string
	pos   token.Pos
}

// ------------------------------------------------------------------
// Classification

// containsLock reports whether a value of type t embeds a no-copy
// synchronization primitive anywhere in its flat (non-pointer) layout.
func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if obj := t.Obj(); obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "sync":
				switch obj.Name() {
				case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Pool", "Map":
					return true
				}
			case "sync/atomic":
				// Every named value type in sync/atomic is no-copy.
				return true
			}
		}
		return containsLock(t.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if containsLock(t.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(t.Elem(), seen)
	}
	return false
}

func lockBearing(t types.Type) bool {
	return containsLock(t, make(map[types.Type]bool))
}

// lockAcquire returns the receiver expression of a Lock/RLock call on a
// lock-bearing type, or nil. TryLock is ignored: a must-analysis cannot
// assume a try succeeded.
func lockAcquire(info *types.Info, call *ast.CallExpr) ast.Expr {
	return lockMethodRecv(info, call, "Lock", "RLock")
}

// lockRelease mirrors lockAcquire for Unlock/RUnlock.
func lockRelease(info *types.Info, call *ast.CallExpr) ast.Expr {
	return lockMethodRecv(info, call, "Unlock", "RUnlock")
}

func lockMethodRecv(info *types.Info, call *ast.CallExpr, names ...string) ast.Expr {
	if len(call.Args) != 0 {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	match := false
	for _, n := range names {
		if sel.Sel.Name == n {
			match = true
			break
		}
	}
	if !match {
		return nil
	}
	t := info.TypeOf(sel.X)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if t == nil || !lockBearing(t) {
		return nil
	}
	return sel.X
}

// lockClassOf canonicalizes the receiver of a lock operation into a
// class name, reporting whether the class is function-local.
func lockClassOf(info *types.Info, pkg *types.Package, fnName string, recv ast.Expr) (string, bool) {
	recv = ast.Unparen(recv)
	// A lock-bearing user struct locked as a whole (embedded mutex):
	// the type is the class.
	t := info.TypeOf(recv)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		if obj := named.Obj(); obj.Pkg() != nil &&
			obj.Pkg().Path() != "sync" && obj.Pkg().Path() != "sync/atomic" {
			return obj.Pkg().Path() + "." + obj.Name(), false
		}
	}
	// A plain sync primitive: the class is where it lives.
	switch e := recv.(type) {
	case *ast.IndexExpr:
		return lockClassOf(info, pkg, fnName, e.X)
	case *ast.StarExpr:
		return lockClassOf(info, pkg, fnName, e.X)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			rt := sel.Recv()
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			if named, ok := rt.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name, false
			}
		}
		// Package-qualified mutex: pkgname.Mu.
		if id, ok := e.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				return pn.Imported().Path() + "." + e.Sel.Name, false
			}
		}
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			if v.Parent() == pkg.Scope() {
				return pkg.Path() + "." + v.Name(), false
			}
			return fnName + "." + v.Name(), true
		}
	}
	return fnName + "." + types.ExprString(recv), true
}

// ------------------------------------------------------------------
// Dataflow

// lockState is the must-held lockset in acquisition order.
type lockState struct{ held []heldLock }

func lockFlow(info *types.Info, pkg *types.Package, pf *PkgFacts, fnName string) *Flow[lockState] {
	return &Flow[lockState]{
		Entry: lockState{},
		Copy: func(s lockState) lockState {
			return lockState{held: append([]heldLock(nil), s.held...)}
		},
		Join: func(a, b lockState) lockState {
			// Intersection preserving a's order: held at a merge only if
			// held on every path into it.
			var out []heldLock
			for _, h := range a.held {
				for _, g := range b.held {
					if g == h {
						out = append(out, h)
						break
					}
				}
			}
			a.held = out
			return a
		},
		Equal: func(a, b lockState) bool {
			if len(a.held) != len(b.held) {
				return false
			}
			for i := range a.held {
				if a.held[i] != b.held[i] {
					return false
				}
			}
			return true
		},
		Transfer: func(n ast.Node, s lockState) lockState {
			return lockStmtScan(info, pkg, pf, fnName, n, s, nil)
		},
	}
}

// lockStmtScan applies one node's lock effects in source order. When
// out is non-nil (the Walk pass) it collects the ordering edges, double
// acquisitions and locked calls observed at this node.
func lockStmtScan(info *types.Info, pkg *types.Package, pf *PkgFacts, fnName string, n ast.Node,
	s lockState, out *lockScan) lockState {
	// A deferred Unlock keeps the lock held for the rest of the
	// function; a deferred anything-else has no lock effect here.
	if _, ok := n.(*ast.DeferStmt); ok {
		return s
	}
	inspectOwn(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if recv := lockAcquire(info, m); recv != nil {
				class, local := lockClassOf(info, pkg, fnName, recv)
				expr := types.ExprString(recv)
				if out != nil {
					for _, h := range s.held {
						if h.class == class && h.expr == expr {
							out.doubles = append(out.doubles, lockDouble{class: class, pos: m.Pos()})
						} else if h.class != class && !h.local && !local {
							out.edges = append(out.edges, lockEdge{from: h.class, to: class, pos: m.Pos()})
						}
					}
				}
				s.held = append(s.held, heldLock{class: class, expr: expr, local: local})
				return false
			}
			if recv := lockRelease(info, m); recv != nil {
				expr := types.ExprString(recv)
				for i := len(s.held) - 1; i >= 0; i-- {
					if s.held[i].expr == expr {
						s.held = append(s.held[:i], s.held[i+1:]...)
						break
					}
				}
				return false
			}
			if len(s.held) == 0 || out == nil {
				return true
			}
			out.locked = append(out.locked, m)
			// A callee that acquires locks orders them after everything
			// held here (the callee releases what it takes, so the
			// lockset itself is unchanged). Same-class entries are
			// skipped, as for direct acquisitions.
			if fn := staticCallee(info, m); fn != nil {
				if cs := pf.SummaryOf(fn); cs != nil {
					for _, c := range cs.LockClasses {
						for _, h := range s.held {
							if !h.local && h.class != c {
								out.edges = append(out.edges, lockEdge{from: h.class, to: c, pos: m.Pos()})
							}
						}
					}
				}
			}
		}
		return true
	})
	return s
}

// lockScan is one function's solved lockset walk: the positioned
// ordering edges and double acquisitions lockorder reports, and every
// call made while the must-held lockset is non-empty, which locksafe
// checks for simulated I/O.
type lockScan struct {
	edges   []lockEdge
	doubles []lockDouble
	locked  []*ast.CallExpr
}

// scanLockOrder solves the lockset dataflow for n and collects its
// lockScan, or nil when the body acquires no lock. Each func literal in
// the body is solved as its own CFG from an empty lockset — a closure
// runs on its own schedule, not under the locks held where it is
// written — and contributes only its locked calls: lockorder's edges
// and double acquisitions stay the enclosing function's own.
func scanLockOrder(pf *PkgFacts, info *types.Info, n *FuncNode) *lockScan {
	if !acquiresLock(info, n.Decl.Body) {
		return nil
	}
	fnName := n.Summary.Func
	solve := func(body *ast.BlockStmt, out *lockScan) {
		sol := Solve(NewCFG(body), lockFlow(info, pf.pkg, pf, fnName))
		sol.Walk(func(node ast.Node, before lockState) {
			lockStmtScan(info, pf.pkg, pf, fnName, node, before, out)
		})
	}
	out := &lockScan{}
	solve(n.Decl.Body, out)
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok && acquiresLock(info, lit.Body) {
			var own lockScan
			solve(lit.Body, &own)
			out.locked = append(out.locked, own.locked...)
		}
		return true
	})
	return out
}

// acquiresLock reports whether body, closures included, contains a
// lock acquisition.
func acquiresLock(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok && lockAcquire(info, call) != nil {
			found = true
		}
		return !found
	})
	return found
}

// ------------------------------------------------------------------
// Analyzer

func runLockOrder(pass *Pass) error {
	pf := pass.Facts
	// The order graph this unit can see: every pair fact of its own
	// functions (which already union in their callees' pairs, across
	// packages) plus its own positioned edges.
	succs := make(map[string][]string)
	addPair := func(from, to string) {
		for _, s := range succs[from] {
			if s == to {
				return
			}
		}
		succs[from] = append(succs[from], to)
	}
	var positioned []lockEdge
	var doubles []lockDouble
	for _, n := range pf.Nodes() {
		for _, p := range n.Summary.LockPairs {
			if from, to, ok := strings.Cut(p, lockPairSep); ok {
				addPair(from, to)
			}
		}
		if n.locks == nil {
			continue
		}
		for _, e := range n.locks.edges {
			addPair(e.from, e.to)
		}
		positioned = append(positioned, n.locks.edges...)
		doubles = append(doubles, n.locks.doubles...)
	}

	for _, d := range doubles {
		pass.Reportf(d.pos, "%s is already held on this path; acquiring it again deadlocks", d.class)
	}

	// A positioned edge from=>to closes a cycle when from is reachable
	// from to. Report once per (from,to).
	reported := make(map[string]bool)
	for _, e := range positioned {
		key := e.from + "\x00" + e.to
		if reported[key] {
			continue
		}
		if path := lockPath(succs, e.to, e.from); path != nil {
			reported[key] = true
			cycle := strings.Join(append(path, e.to), " "+lockPairSep+" ")
			pass.Reportf(e.pos, "acquiring %s while holding %s creates a lock-order cycle: %s", e.to, e.from, cycle)
		}
	}
	return nil
}

// lockPath returns a path from -> ... -> to in the order graph (BFS,
// deterministic over sorted successors), or nil.
func lockPath(succs map[string][]string, from, to string) []string {
	if from == to {
		return []string{from}
	}
	parent := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		next := append([]string(nil), succs[cur]...)
		sort.Strings(next)
		for _, s := range next {
			if _, seen := parent[s]; seen {
				continue
			}
			parent[s] = cur
			if s == to {
				var path []string
				for at := to; at != ""; at = parent[at] {
					path = append(path, at)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, s)
		}
	}
	return nil
}

// ------------------------------------------------------------------
// Summary wiring

// fixLockOrder computes the LockClasses and LockPairs facts. Classes
// first (direct acquisitions plus callee classes, a monotone union);
// then each function's own ordering edges via the lockset dataflow
// (which consults the final classes at call sites), and the pair union
// with callee pairs to a fixed point.
func (pf *PkgFacts) fixLockOrder(info *types.Info) {
	// Phase 1: acquired classes.
	direct := make(map[*FuncNode][]string)
	for _, n := range pf.own {
		set := make(map[string]bool)
		fnName := n.Summary.Func
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			// Closures acquire on their own schedule, not the caller's.
			if _, ok := node.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := node.(*ast.CallExpr); ok {
				if recv := lockAcquire(info, call); recv != nil {
					if class, local := lockClassOf(info, pf.pkg, fnName, recv); !local {
						set[class] = true
					}
				}
			}
			return true
		})
		direct[n] = sortedKeys(set)
	}
	for changed := true; changed; {
		changed = false
		for _, n := range pf.own {
			set := make(map[string]bool)
			for _, c := range direct[n] {
				set[c] = true
			}
			for _, c := range n.Summary.LockClasses {
				set[c] = true
			}
			for _, call := range n.calls {
				if cs := pf.SummaryOf(call.callee); cs != nil {
					for _, c := range cs.LockClasses {
						set[c] = true
					}
				}
			}
			if len(set) > len(n.Summary.LockClasses) {
				n.Summary.LockClasses = sortedKeys(set)
				changed = true
			}
		}
	}

	// Phase 2: ordering pairs. Own scans run once (the lockset is
	// intra-function and classes are now final) and are kept on the node
	// for the lockorder and locksafe passes; callee pairs union in to a
	// fixed point.
	ownPairs := make(map[*FuncNode][]string)
	for _, n := range pf.own {
		n.locks = scanLockOrder(pf, info, n)
		if n.locks == nil {
			continue
		}
		set := make(map[string]bool)
		for _, e := range n.locks.edges {
			set[e.from+lockPairSep+e.to] = true
		}
		ownPairs[n] = sortedKeys(set)
	}
	for changed := true; changed; {
		changed = false
		for _, n := range pf.own {
			set := make(map[string]bool)
			for _, p := range ownPairs[n] {
				set[p] = true
			}
			for _, p := range n.Summary.LockPairs {
				set[p] = true
			}
			for _, call := range n.calls {
				if cs := pf.SummaryOf(call.callee); cs != nil {
					for _, p := range cs.LockPairs {
						set[p] = true
					}
				}
			}
			if len(set) > len(n.Summary.LockPairs) {
				n.Summary.LockPairs = sortedKeys(set)
				changed = true
			}
		}
	}
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
