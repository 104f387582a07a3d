package analysis_test

import (
	"go/ast"
	"testing"

	"rstknn/internal/analysis"
)

// callsSet reports whether n contains a call to the marker function
// set(). The test flows below track a single "set() has run" bit.
func callsSet(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "set" {
				found = true
			}
		}
		return !found
	})
	return found
}

// setFlow is a one-bit flow: the bit turns on at set() and joins with
// the given operator — AND for must, OR for may.
func setFlow(join func(a, b bool) bool) *analysis.Flow[bool] {
	return &analysis.Flow[bool]{
		Entry: false,
		Join:  join,
		Equal: func(a, b bool) bool { return a == b },
		Transfer: func(n ast.Node, s bool) bool {
			if callsSet(n) {
				return true
			}
			return s
		},
	}
}

func mustJoin(a, b bool) bool { return a && b }
func mayJoin(a, b bool) bool  { return a || b }

// solveBody runs the flow over body and returns the state in force at
// its last use() call.
func solveBody(t *testing.T, body string, join func(a, b bool) bool) bool {
	t.Helper()
	fset, blk := parseBody(t, body)
	g := analysis.NewCFG(blk)
	sol := analysis.Solve(g, setFlow(join))
	var at bool
	sol.Walk(func(n ast.Node, s bool) {
		if nodeStr(fset, n) == "use()" {
			at = s
		}
	})
	return at
}

func TestSolveBranchJoin(t *testing.T) {
	body := `
if c {
	set()
}
use()
`
	if solveBody(t, body, mustJoin) {
		t.Error("must-join: set() on one branch only, but the join state is true")
	}
	if !solveBody(t, body, mayJoin) {
		t.Error("may-join: set() on one branch, but the join state is false")
	}
}

func TestSolveBothBranchesMust(t *testing.T) {
	if !solveBody(t, `
if c {
	set()
} else {
	set()
}
use()
`, mustJoin) {
		t.Error("must-join: set() on every branch, but the join state is false")
	}
}

func TestSolveLoopZeroIterations(t *testing.T) {
	body := `
for i := 0; i < n; i++ {
	set()
}
use()
`
	if solveBody(t, body, mustJoin) {
		t.Error("must-join: the zero-iteration path skips set(), but the state after the loop is true")
	}
	if !solveBody(t, body, mayJoin) {
		t.Error("may-join: the loop body runs set(), but the state after the loop is false")
	}
}

func TestWalkSeesPreStates(t *testing.T) {
	fset, blk := parseBody(t, `
set()
use()
`)
	g := analysis.NewCFG(blk)
	sol := analysis.Solve(g, setFlow(mustJoin))
	before := make(map[string]bool)
	sol.Walk(func(n ast.Node, s bool) {
		before[nodeStr(fset, n)] = s
	})
	if before["set()"] {
		t.Error("state before set() should be false")
	}
	if !before["use()"] {
		t.Error("state before use() should be true (set already ran)")
	}
}

func TestWalkVisitsEachNodeOnce(t *testing.T) {
	fset, blk := parseBody(t, `
for i := 0; i < n; i++ {
	set()
	use()
}
use()
`)
	g := analysis.NewCFG(blk)
	sol := analysis.Solve(g, setFlow(mayJoin))
	visits := make(map[string]int)
	sol.Walk(func(n ast.Node, _ bool) {
		visits[nodeStr(fset, n)]++
	})
	// Walk replays the fixed point once per block: even with the loop's
	// back edge, each node is visited exactly once.
	if visits["set()"] != 1 {
		t.Errorf("loop body node visited %d times, want 1", visits["set()"])
	}
	// use() appears twice in the source; both copies render identically,
	// so the shared key accumulates exactly 2.
	if visits["use()"] != 2 {
		t.Errorf("the two use() statements were visited %d times total, want 2", visits["use()"])
	}
}

func TestSolveLoopCarriedState(t *testing.T) {
	// The bit set in iteration k must reach the head for iteration k+1
	// under may semantics: the in-state of the loop body stabilizes true.
	fset, blk := parseBody(t, `
for i := 0; i < n; i++ {
	use()
	set()
}
`)
	g := analysis.NewCFG(blk)
	sol := analysis.Solve(g, setFlow(mayJoin))
	var beforeUse bool
	sol.Walk(func(n ast.Node, s bool) {
		if nodeStr(fset, n) == "use()" {
			beforeUse = s
		}
	})
	if !beforeUse {
		t.Error("may-join: set() from the previous iteration should reach use() via the back edge")
	}
}
