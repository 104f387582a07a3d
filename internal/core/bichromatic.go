package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"rstknn/internal/iurtree"
	"rstknn/internal/pq"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// Bichromatic reverse spatial-textual kNN — the extension the follow-up
// literature (e.g. the MaxBRSTkNN work that cites this paper) builds on.
// Given a set of *facilities* indexed by a tree and a set of *users*, a
// query facility q "influences" user u when q would rank within u's top-k
// facilities. BichromaticRSTkNN returns all influenced users.
//
// The key observation that avoids computing every user's exact k-th
// facility similarity: u is influenced iff strictly fewer than k
// facilities are more similar to u than q is. CountExceeding answers that
// with a best-first tree descent that stops as soon as k facilities beat
// the query's similarity, pruning every subtree whose upper bound cannot.

// CountExceeding returns min(limit, |{o : SimST(o, q) > threshold}|),
// reading as little of the tree as the bound allows. Metrics report the
// traversal work. Only opt.Alpha, opt.Sim, opt.Ctx, and opt.Tracker are
// consulted; the count cutoff is the explicit limit parameter, not opt.K.
func CountExceeding(t *iurtree.Snapshot, q Query, threshold float64, limit int, opt BichromaticOptions) (int, Metrics, error) {
	var m Metrics
	if opt.Alpha < 0 || opt.Alpha > 1 {
		return 0, m, fmt.Errorf("core: Alpha must be in [0,1], got %g", opt.Alpha)
	}
	if limit <= 0 || t.Len() == 0 {
		return 0, m, nil
	}
	sc := NewScorer(opt.Alpha, t.MaxD(), opt.Sim)
	frontier := pq.NewMax[iurtree.Entry]()
	root := t.RootEntry()
	if b := sc.queryBounds(sideOf(&root), &q); b.hi > threshold {
		frontier.Push(root, b.hi)
	}
	count := 0
	for !frontier.Empty() && count < limit {
		e, _ := frontier.Pop()
		if e.IsObject() {
			// Object entries were pushed with their exact similarity as
			// priority, already checked > threshold.
			count++
			continue
		}
		if err := checkCtx(opt.Ctx); err != nil {
			return 0, m, err
		}
		n, err := t.ReadSharedTracked(e.Child, opt.Tracker)
		if err != nil {
			return 0, m, err
		}
		m.NodesRead++
		for i := range n.Entries {
			child := &n.Entries[i]
			if b := sc.queryBounds(sideOf(child), &q); b.hi > threshold {
				frontier.Push(*child, b.hi)
			}
		}
	}
	m.ExactSims = sc.ExactCount
	m.BoundEvals = sc.BoundCount
	return count, m, nil
}

// User is one element of the bichromatic user set.
type User struct {
	ID  int32
	Loc Query // reuse Query as the (Loc, Doc) pair
}

// BichromaticOptions configure a bichromatic reverse query.
type BichromaticOptions struct {
	K     int
	Alpha float64
	Sim   vector.TextSim
	// Workers bounds the parallelism of the per-user loop, which is
	// embarrassingly parallel: each user's influence test is independent.
	// Values <= 0 default to runtime.GOMAXPROCS(0); 1 runs sequentially.
	// The outcome is identical at every worker count.
	Workers int
	// Ctx, when non-nil, cancels the query: it is checked before every
	// node read and between users.
	Ctx context.Context
	// Tracker, when non-nil, receives the query's simulated I/O charges.
	Tracker *storage.Tracker
}

// BichromaticOutcome reports the influenced users and traversal totals.
type BichromaticOutcome struct {
	// UserIDs lists the influenced users, ascending.
	UserIDs []int32
	Metrics Metrics
}

// BichromaticRSTkNN returns every user u (from the in-memory user set) for
// whom the query facility q would rank within u's top-k facilities among
// the indexed facility set.
func BichromaticRSTkNN(facilities *iurtree.Snapshot, users []iurtree.Object, q Query, opt BichromaticOptions) (*BichromaticOutcome, error) {
	if opt.K <= 0 {
		return nil, fmt.Errorf("core: K must be positive, got %d", opt.K)
	}
	if opt.Alpha < 0 || opt.Alpha > 1 {
		return nil, fmt.Errorf("core: Alpha must be in [0,1], got %g", opt.Alpha)
	}
	out := &BichromaticOutcome{}
	workers := effectiveWorkers(opt.Workers)
	if workers > len(users) {
		workers = len(users)
	}
	// Each user's influence test is independent, so the loop fans out
	// across a worker pool (one goroutine when Workers is 1). Every
	// worker has a private scorer and private accumulators; metrics are
	// sums and the ID set is sorted, so the merged outcome does not
	// depend on the worker count.
	type tally struct {
		ids     []int32
		metrics Metrics
		err     error
	}
	tallies := make([]tally, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			sc := NewScorer(opt.Alpha, facilities.MaxD(), opt.Sim)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(users) {
					break
				}
				if err := checkCtx(opt.Ctx); err != nil {
					t.err = err
					return
				}
				influenced, m, err := testUser(facilities, &users[i], &q, sc, opt)
				if err != nil {
					t.err = err
					return
				}
				t.metrics.add(&m)
				if influenced {
					t.ids = append(t.ids, users[i].ID)
				}
			}
			t.metrics.ExactSims += sc.ExactCount
		}(&tallies[w])
	}
	wg.Wait()
	for i := range tallies {
		if tallies[i].err != nil {
			return nil, tallies[i].err
		}
		out.Metrics.add(&tallies[i].metrics)
		out.UserIDs = append(out.UserIDs, tallies[i].ids...)
	}
	sort.Slice(out.UserIDs, func(i, j int) bool { return out.UserIDs[i] < out.UserIDs[j] })
	return out, nil
}

// testUser decides whether the query facility influences one user: it is
// influenced iff strictly fewer than opt.K facilities beat the query's
// similarity to the user. The caller-owned scorer accumulates the exact
// similarity evaluated here; traversal work is returned in m.
func testUser(facilities *iurtree.Snapshot, u *iurtree.Object, q *Query, sc *Scorer, opt BichromaticOptions) (influenced bool, m Metrics, err error) {
	uq := Query{Loc: u.Loc, Doc: u.Doc}
	s0 := sc.Exact(u.Loc, u.Doc, q.Loc, q.Doc)
	better, m, err := CountExceeding(facilities, uq, s0, opt.K, opt)
	if err != nil {
		return false, m, err
	}
	return better < opt.K, m, nil
}
