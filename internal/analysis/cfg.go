package analysis

// Intraprocedural control-flow graphs over function bodies. The
// path-sensitive lockorder (and locksafe, which reads its lockset)
// cannot work on the flat AST walks the older analyzers use: "this lock
// is held on every path into this call" is a property of paths, not of
// syntax. NewCFG lowers one
// *ast.BlockStmt into basic blocks connected by branch, loop, switch,
// select, and labeled-goto edges; the generic fixed-point solver in
// dataflow.go then propagates analyzer-specific lattice states over it.
//
// Modeling decisions, chosen for the protocols checked on top:
//
//   - Statements are kept whole: a block's Nodes are the ast.Stmt (plus
//     standalone condition expressions) in execution order, and transfer
//     functions scan inside them. Sub-statement ordering within one
//     statement is the transfer function's business.
//   - defer is an exit-edge action: the *ast.DeferStmt node stays in the
//     block where it executes, and the analyzer's transfer function
//     registers the deferred call in the abstract state, applying its
//     effect to every subsequent function exit on that path. That is
//     exactly Go's semantics for the patterns checked here (a deferred
//     Release/Unlock runs on every later exit, but only on paths that
//     executed the defer).
//   - return edges to the synthetic Exit block; a statement-level
//     panic(...) call is a terminator with the same exit edge, so a
//     "released on all paths" analysis treats a panicking branch as an
//     exit that deferred actions still cover. Code after a terminator
//     lands in a fresh unreachable block (the solver never visits it).
//   - for/range loops have the usual head/body/after shape with a back
//     edge, so loop-carried states reach their fixed point; break and
//     continue (labeled or not) edge to the matching after/post block;
//     goto edges to its label's block (label blocks are pre-created, so
//     forward gotos resolve).
//   - select with no default has no head→after edge (it blocks until a
//     case fires); switch without default does (the tag may match
//     nothing).
//
// The builder is purely syntactic — it needs no *types.Info — which
// keeps CFG construction usable from the fact summarizer, where it runs
// on every function of every package, including fixtures.

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: nodes that execute in order with no
// internal control transfer, plus the edges out.
type Block struct {
	// Index is the block's position in CFG.Blocks; solver states are
	// indexed by it.
	Index int
	// Nodes are the statements (and standalone condition expressions)
	// of the block in execution order.
	Nodes []ast.Node
	// Succs are the possible control-flow successors.
	Succs []*Block
	// Preds are the predecessors (the reverse edges of Succs).
	Preds []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Entry is the synthetic entry block (it precedes the first
	// statement and carries no nodes of its own).
	Entry *Block
	// Exit is the synthetic exit block every return, terminating panic,
	// and fall-off-the-end path edges into.
	Exit *Block
	// Blocks lists every block, Entry and Exit included.
	Blocks []*Block
}

// NewCFG builds the control-flow graph of one function body.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		g:      &CFG{},
		labels: make(map[string]*Block),
	}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	// Pre-create label blocks so forward gotos resolve.
	ast.Inspect(body, func(n ast.Node) bool {
		if ls, ok := n.(*ast.LabeledStmt); ok {
			b.labels[ls.Label.Name] = b.newBlock()
		}
		return true
	})
	b.cur = b.g.Entry
	b.stmts(body.List)
	b.edge(b.cur, b.g.Exit)
	return b.g
}

// ------------------------------------------------------------------
// Builder

// target is one enclosing break/continue destination, possibly labeled.
type target struct {
	label string
	block *Block
}

type cfgBuilder struct {
	g   *CFG
	cur *Block

	breaks    []target
	continues []target
	labels    map[string]*Block

	// pendingLabel names the label wrapping the next loop/switch
	// statement, so labeled break/continue resolve to it.
	pendingLabel string
	// pendingFallthrough is the block a fallthrough statement detached
	// from; the switch builder edges it to the next case body.
	pendingFallthrough *Block
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// startBlock begins a new block reached from cur.
func (b *cfgBuilder) startBlock() *Block {
	blk := b.newBlock()
	b.edge(b.cur, blk)
	return blk
}

// detach parks the builder on a fresh predecessor-less block: the code
// that follows a terminator is unreachable.
func (b *cfgBuilder) detach() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for the loop/switch statement
// being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) pushTargets(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, target{label: label, block: brk})
	if cont != nil {
		b.continues = append(b.continues, target{label: label, block: cont})
	}
}

func (b *cfgBuilder) popTargets(cont bool) {
	b.breaks = b.breaks[:len(b.breaks)-1]
	if cont {
		b.continues = b.continues[:len(b.continues)-1]
	}
}

func findTarget(stack []target, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)

	case *ast.LabeledStmt:
		lb := b.labels[s.Label.Name]
		b.edge(b.cur, lb)
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		after := b.newBlock()
		b.cur = b.startBlock() // then branch
		b.stmt(s.Body)
		b.edge(b.cur, after)
		if s.Else != nil {
			b.cur = cond
			b.cur = b.startBlock()
			b.stmt(s.Else)
			b.edge(b.cur, after)
		} else {
			b.edge(cond, after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.startBlock()
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		after := b.newBlock()
		if s.Cond != nil {
			b.edge(head, after)
		}
		var post *Block
		cont := head
		if s.Post != nil {
			post = b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
			cont = post
		}
		b.pushTargets(label, after, cont)
		b.cur = head
		b.cur = b.startBlock() // body
		b.stmt(s.Body)
		b.edge(b.cur, cont)
		b.popTargets(true)
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.startBlock()
		// The RangeStmt node stands for the per-iteration work: range
		// expression access and key/value assignment.
		head.Nodes = append(head.Nodes, s)
		after := b.newBlock()
		b.edge(head, after)
		b.pushTargets(label, after, head)
		b.cur = head
		b.cur = b.startBlock() // body
		b.stmt(s.Body)
		b.edge(b.cur, head)
		b.popTargets(true)
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(label, s.Body.List, nil)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(label, s.Body.List, nil)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		after := b.newBlock()
		b.pushTargets(label, after, nil)
		hasDefault := false
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm == nil {
				hasDefault = true
			}
			b.cur = head
			b.cur = b.startBlock()
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmts(cc.Body)
			b.edge(b.cur, after)
		}
		// Without a default the select blocks until some case fires;
		// with one (or with no cases at all) control can pass straight
		// through.
		if hasDefault || len(s.Body.List) == 0 {
			b.edge(head, after)
		}
		b.popTargets(false)
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.detach()

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := findTarget(b.breaks, labelName(s.Label)); t != nil {
				b.edge(b.cur, t)
			}
			b.detach()
		case token.CONTINUE:
			if t := findTarget(b.continues, labelName(s.Label)); t != nil {
				b.edge(b.cur, t)
			}
			b.detach()
		case token.GOTO:
			if lb, ok := b.labels[labelName(s.Label)]; ok {
				b.edge(b.cur, lb)
			}
			b.detach()
		case token.FALLTHROUGH:
			b.pendingFallthrough = b.cur
			b.detach()
		}

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.edge(b.cur, b.g.Exit)
			b.detach()
		}

	default:
		// Assign, Decl, IncDec, Send, Go, Defer, Empty: straight-line.
		b.add(s)
	}
}

// switchClauses lowers the case clauses of a switch or type switch:
// every case body is entered from the head block, falls through on an
// explicit fallthrough, and otherwise exits to the after block. Without
// a default clause the head may match nothing and edges to after
// directly.
func (b *cfgBuilder) switchClauses(label string, clauses []ast.Stmt, _ *Block) {
	head := b.cur
	after := b.newBlock()
	b.pushTargets(label, after, nil)

	entries := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		entries[i] = b.newBlock()
		b.edge(head, entries[i])
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	for i, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		b.cur = entries[i]
		for _, e := range cc.List {
			b.add(e)
		}
		b.stmts(cc.Body)
		b.edge(b.cur, after)
		if b.pendingFallthrough != nil && i+1 < len(entries) {
			b.edge(b.pendingFallthrough, entries[i+1])
		}
		b.pendingFallthrough = nil
	}
	b.popTargets(false)
	b.cur = after
}

func labelName(id *ast.Ident) string {
	if id == nil {
		return ""
	}
	return id.Name
}

// inspectOwn visits the parts of a block node that execute where the
// block placed it. For every node the builder emits that is n itself —
// except the RangeStmt head node, whose body statements live in their
// own blocks: only the per-iteration head (key, value, range
// expression) is descended into. Transfer functions must use this
// instead of ast.Inspect or they double-apply the loop body's effects.
func inspectOwn(n ast.Node, f func(ast.Node) bool) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		if rs.Key != nil {
			ast.Inspect(rs.Key, f)
		}
		if rs.Value != nil {
			ast.Inspect(rs.Value, f)
		}
		ast.Inspect(rs.X, f)
		return
	}
	ast.Inspect(n, f)
}

// isPanicCall reports a statement-level panic(...) call. The check is
// syntactic (the CFG builder carries no type info); shadowing the panic
// builtin would fool it, which this codebase does not do.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
