package core

import (
	"context"
	"fmt"
	"sort"

	"rstknn/internal/iurtree"
	"rstknn/internal/pq"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// Neighbor is one result of a spatial-textual top-k search.
type Neighbor struct {
	ID  int32
	Sim float64
}

// TopKOptions configure a top-k SimST search.
type TopKOptions struct {
	K     int
	Alpha float64
	Sim   vector.TextSim
	// Exclude drops one object ID from consideration; used to compute an
	// indexed object's k-th NN among the *other* objects. Set to a
	// negative value to exclude nothing.
	Exclude int32
	// Ctx, when non-nil, cancels the search: it is checked before every
	// node read and the search aborts with ctx.Err().
	Ctx context.Context
	// Tracker, when non-nil, receives the query's simulated I/O charges
	// for exact per-query accounting under concurrency.
	Tracker *storage.Tracker
}

// TopK returns the k indexed objects most similar to the query under
// SimST, best-first over the tree using the query upper bound MaxST as
// priority — the standard spatial-textual top-k search the paper's
// precomputation baseline relies on. Results are sorted by descending
// similarity (ties by ascending ID). The returned metrics count node
// reads and similarity evaluations.
func TopK(t *iurtree.Snapshot, q Query, opt TopKOptions) ([]Neighbor, Metrics, error) {
	var m Metrics
	if opt.K <= 0 {
		return nil, m, fmt.Errorf("core: K must be positive, got %d", opt.K)
	}
	if opt.Alpha < 0 || opt.Alpha > 1 {
		return nil, m, fmt.Errorf("core: Alpha must be in [0,1], got %g", opt.Alpha)
	}
	if t.Len() == 0 {
		return nil, m, nil
	}
	sc := NewScorer(opt.Alpha, t.MaxD(), opt.Sim)
	top := pq.NewTopK[Neighbor](opt.K)

	frontier := pq.NewMax[iurtree.Entry]()
	root := t.RootEntry()
	frontier.Push(root, sc.queryBounds(sideOf(&root), &q).hi)

	for !frontier.Empty() {
		e, hi := frontier.Pop()
		if top.Full() && hi < top.Threshold() {
			break // no remaining entry can improve the result
		}
		if e.IsObject() {
			if e.ObjID == opt.Exclude {
				continue
			}
			top.Offer(Neighbor{ID: e.ObjID, Sim: hi}, hi)
			continue
		}
		if err := checkCtx(opt.Ctx); err != nil {
			return nil, m, err
		}
		n, err := t.ReadSharedTracked(e.Child, opt.Tracker)
		if err != nil {
			return nil, m, err
		}
		m.NodesRead++
		for i := range n.Entries {
			child := &n.Entries[i]
			b := sc.queryBounds(sideOf(child), &q)
			if top.Full() && b.hi < top.Threshold() {
				continue
			}
			frontier.Push(*child, b.hi)
		}
	}
	vs, _ := top.Drain()
	sort.Slice(vs, func(i, j int) bool {
		//rstknn:allow floatcmp sort comparator needs a strict weak order; epsilon ties would break transitivity
		if vs[i].Sim != vs[j].Sim {
			return vs[i].Sim > vs[j].Sim
		}
		return vs[i].ID < vs[j].ID
	})
	m.ExactSims = sc.ExactCount
	m.BoundEvals = sc.BoundCount
	return vs, m, nil
}

// KthSimilarity returns the similarity of the query's k-th most similar
// indexed object (excluding `exclude`), or -Inf when fewer than k other
// objects exist. This is the threshold the reverse query compares
// against: o is an RSTkNN result iff SimST(o, q) >= KthSimilarity(o).
func KthSimilarity(t *iurtree.Snapshot, q Query, opt TopKOptions) (float64, Metrics, error) {
	nbs, m, err := TopK(t, q, opt)
	if err != nil {
		return 0, m, err
	}
	if len(nbs) < opt.K {
		return negInf, m, nil
	}
	return nbs[opt.K-1].Sim, m, nil
}
