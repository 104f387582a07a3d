package analysis_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"testing"

	"rstknn/internal/analysis"
)

// parseBody wraps body in a function, parses it (no type checking — the
// CFG is purely syntactic), and returns the fileset and block.
func parseBody(t *testing.T, body string) (*token.FileSet, *ast.BlockStmt) {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v\nsource:\n%s", err, src)
	}
	return fset, file.Decls[0].(*ast.FuncDecl).Body
}

func nodeStr(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return "<unprintable>"
	}
	return buf.String()
}

// trivialFlow is the unit flow: solving with it computes pure
// reachability, and Walk then enumerates every reachable node.
func trivialFlow() *analysis.Flow[struct{}] {
	return &analysis.Flow[struct{}]{
		Join:     func(a, _ struct{}) struct{} { return a },
		Equal:    func(_, _ struct{}) bool { return true },
		Transfer: func(_ ast.Node, s struct{}) struct{} { return s },
	}
}

// reachedNodes builds the CFG for body and returns the rendered source
// of every node the solver can reach, in block order.
func reachedNodes(t *testing.T, body string) (*analysis.CFG, map[string]int) {
	t.Helper()
	fset, blk := parseBody(t, body)
	g := analysis.NewCFG(blk)
	sol := analysis.Solve(g, trivialFlow())
	seen := make(map[string]int)
	sol.Walk(func(n ast.Node, _ struct{}) {
		seen[nodeStr(fset, n)]++
	})
	return g, seen
}

// reachedExitPreds counts the exit predecessors reachability actually
// arrives at (the CFG keeps a fall-off-the-end edge even when the block
// in front of it is dead).
func reachedExitPreds(t *testing.T, body string) int {
	t.Helper()
	_, blk := parseBody(t, body)
	g := analysis.NewCFG(blk)
	sol := analysis.Solve(g, trivialFlow())
	n := 0
	for _, p := range g.Exit.Preds {
		if sol.Reached[p.Index] {
			n++
		}
	}
	return n
}

func TestCFGStraightLine(t *testing.T) {
	g, seen := reachedNodes(t, `
x := 1
x++
_ = x
`)
	for _, want := range []string{"x := 1", "x++", "_ = x"} {
		if seen[want] != 1 {
			t.Errorf("statement %q visited %d times, want 1", want, seen[want])
		}
	}
	if got := len(g.Exit.Preds); got != 1 {
		t.Errorf("straight line has %d exit preds, want 1", got)
	}
}

func TestCFGUnreachableAfterReturn(t *testing.T) {
	_, seen := reachedNodes(t, `
y := 0
_ = y
return
y = 1
`)
	if seen["y = 1"] != 0 {
		t.Errorf("statement after return was reached %d times", seen["y = 1"])
	}
	if seen["y := 0"] != 1 {
		t.Errorf("statement before return visited %d times, want 1", seen["y := 0"])
	}
}

func TestCFGUnreachableAfterPanic(t *testing.T) {
	_, seen := reachedNodes(t, `
if c {
	panic("boom")
	y := 2
	_ = y
}
x := 1
_ = x
`)
	if seen["y := 2"] != 0 {
		t.Errorf("statement after panic was reached %d times", seen["y := 2"])
	}
	if seen["x := 1"] != 1 {
		t.Errorf("join after the if visited %d times, want 1", seen["x := 1"])
	}
}

func TestCFGEarlyReturnExitPaths(t *testing.T) {
	if got := reachedExitPreds(t, `
if c {
	return
}
x := 1
_ = x
`); got != 2 {
		t.Errorf("early return + fall-off: %d exit paths, want 2", got)
	}
}

func TestCFGForLoopBackEdge(t *testing.T) {
	fset, blk := parseBody(t, `
for i := 0; i < n; i++ {
	x += i
}
done := true
_ = done
`)
	g := analysis.NewCFG(blk)
	sol := analysis.Solve(g, trivialFlow())
	// The head block carries the loop condition; the back edge from the
	// post block gives it a second predecessor.
	var head *analysis.Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if nodeStr(fset, n) == "i < n" {
				head = b
			}
		}
	}
	if head == nil {
		t.Fatal("no block carries the loop condition")
	}
	if len(head.Preds) < 2 {
		t.Errorf("loop head has %d preds, want >= 2 (init edge + back edge)", len(head.Preds))
	}
	reachedAfter := false
	sol.Walk(func(n ast.Node, _ struct{}) {
		if nodeStr(fset, n) == "done := true" {
			reachedAfter = true
		}
	})
	if !reachedAfter {
		t.Error("statement after the loop is unreachable")
	}
}

func TestCFGInfiniteLoopHasNoExitPath(t *testing.T) {
	if got := reachedExitPreds(t, `
for {
	x++
}
`); got != 0 {
		t.Errorf("for{} with no break: %d reachable exit paths, want 0", got)
	}
}

func TestCFGLoopBreakReachesAfter(t *testing.T) {
	_, seen := reachedNodes(t, `
for {
	if c {
		break
	}
	x++
}
after := 1
_ = after
`)
	if seen["after := 1"] != 1 {
		t.Errorf("break target visited %d times, want 1", seen["after := 1"])
	}
}

func TestCFGSwitchWithoutDefaultFallsThrough(t *testing.T) {
	_, seen := reachedNodes(t, `
switch x {
case 1:
	return
}
y := 1
_ = y
`)
	if seen["y := 1"] != 1 {
		t.Errorf("no-default switch: after-statement visited %d times, want 1", seen["y := 1"])
	}
}

func TestCFGSwitchAllCasesReturnWithDefault(t *testing.T) {
	_, seen := reachedNodes(t, `
switch x {
case 1:
	return
default:
	return
}
y := 1
_ = y
`)
	if seen["y := 1"] != 0 {
		t.Errorf("exhaustive switch: after-statement reached %d times, want 0", seen["y := 1"])
	}
}

func TestCFGGotoSkipsStraightLine(t *testing.T) {
	_, seen := reachedNodes(t, `
goto done
x := 1
_ = x
done:
_ = 2
`)
	if seen["x := 1"] != 0 {
		t.Errorf("statement jumped over by goto reached %d times", seen["x := 1"])
	}
	if seen["_ = 2"] != 1 {
		t.Errorf("goto target visited %d times, want 1", seen["_ = 2"])
	}
}

func TestCFGRangeBodyNotDuplicated(t *testing.T) {
	// The RangeStmt head node contains the body syntactically; the body
	// statements must still appear in exactly one block each, and
	// transfer functions see them exactly once via Walk.
	_, seen := reachedNodes(t, `
for _, v := range xs {
	sum += v
}
_ = sum
`)
	if seen["sum += v"] != 1 {
		t.Errorf("range body statement visited %d times, want 1", seen["sum += v"])
	}
}
