package analysis

// A generic forward dataflow solver over the CFGs of cfg.go. An
// analyzer describes its lattice as a Flow[S]: the entry state, a join
// for block merges, an equality test for the fixed point, and a
// transfer function applied to every node of a block in order. Whether
// the analysis is a must-analysis (join = intersection/AND: the
// property holds on every path) or a may-analysis (join = union/OR: it
// holds on some path) is entirely the Join function's choice —
// lockorder tracks must-held locksets with an intersection join.
//
// Solve iterates to a fixed point: starting from Entry at the entry
// block, every reachable block's in-state is the join of its
// predecessors' out-states, and out-states are the transfer of
// in-states. Unreachable blocks (detached after return/panic/goto) are
// never visited, so terminator-dead code cannot pollute the lattice.
// Termination is the analyzer's obligation: Join must be monotone on a
// finite-height lattice (lockorder's locksets range over the lock
// classes of the function's own syntax, so height is trivially bounded).
//
// Deferred actions are applied by the transfer functions themselves
// (the DeferStmt node sits in its block; registering it in S is the
// defer-as-exit-edge-action model described in cfg.go), so the solver
// needs no special exit hook.

import "go/ast"

// Flow describes one forward dataflow problem with abstract state S.
type Flow[S any] struct {
	// Entry is the state on entry to the function.
	Entry S
	// Copy deep-copies a state. The solver never hands the same S value
	// to two transfers; nil means S is a value type safe to share.
	Copy func(S) S
	// Join merges the state already recorded at a block (first
	// argument) with a newly arriving predecessor out-state (second).
	// It may mutate and return the first argument.
	Join func(S, S) S
	// Equal reports whether two states are indistinguishable — the
	// fixed-point test.
	Equal func(S, S) bool
	// Transfer applies one node's effect. It may mutate and return s.
	Transfer func(n ast.Node, s S) S
}

func (f *Flow[S]) copyState(s S) S {
	if f.Copy == nil {
		return s
	}
	return f.Copy(s)
}

// Solution is the fixed point of one dataflow problem: the in-state of
// every reached block.
type Solution[S any] struct {
	g *CFG
	f *Flow[S]
	// In[i] is the state on entry to block i; meaningful only when
	// Reached[i].
	In []S
	// Reached marks the blocks control flow can actually arrive at.
	Reached []bool
}

// Solve runs the dataflow problem to its fixed point.
func Solve[S any](g *CFG, f *Flow[S]) *Solution[S] {
	sol := &Solution[S]{
		g:       g,
		f:       f,
		In:      make([]S, len(g.Blocks)),
		Reached: make([]bool, len(g.Blocks)),
	}
	entry := g.Entry.Index
	sol.In[entry] = f.Entry
	sol.Reached[entry] = true
	for changed := true; changed; {
		changed = false
		for _, blk := range g.Blocks {
			if !sol.Reached[blk.Index] {
				continue
			}
			out := f.copyState(sol.In[blk.Index])
			for _, n := range blk.Nodes {
				out = f.Transfer(n, out)
			}
			for _, succ := range blk.Succs {
				if !sol.Reached[succ.Index] {
					sol.Reached[succ.Index] = true
					sol.In[succ.Index] = f.copyState(out)
					changed = true
					continue
				}
				joined := f.Join(f.copyState(sol.In[succ.Index]), f.copyState(out))
				if !f.Equal(joined, sol.In[succ.Index]) {
					sol.In[succ.Index] = joined
					changed = true
				}
			}
		}
	}
	return sol
}

// Walk replays the solved transfer over every reached block in index
// order, invoking visit with the state in force immediately BEFORE each
// node. This is how analyzers turn the fixed point into diagnostics:
// visit sees exactly the states Solve computed, and reports exactly
// once per node.
func (sol *Solution[S]) Walk(visit func(n ast.Node, before S)) {
	for _, blk := range sol.g.Blocks {
		if !sol.Reached[blk.Index] {
			continue
		}
		st := sol.f.copyState(sol.In[blk.Index])
		for _, n := range blk.Nodes {
			visit(n, st)
			st = sol.f.Transfer(n, st)
		}
	}
}
