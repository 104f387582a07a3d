package core

import (
	"fmt"

	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
)

// Batch execution.
//
// A batch is answered as independent searches, one RSTkNN traversal per
// item in item order, each with the batch's worker pool. Results, Metrics
// and traced kNN bounds are therefore those of independent RSTkNN calls
// by construction. The items share no traversal: with every node decoded
// once in the bound cache, sharing node reads saved no time (DESIGN.md
// §11).
//
// Tracker attribution rule: each item's node reads are charged to its
// own BatchItem.Tracker, and the batch total is added to opt.Tracker
// once the item is answered.

// BatchItem is one query of a batch: the per-query inputs that vary
// across the batch, while everything shared (alpha, similarity measure,
// refinement strategy, worker pool, context, the batch-level tracker)
// comes from the Options passed to MultiRSTkNN.
type BatchItem struct {
	Query Query
	// K is this query's rank cutoff (Options.K is ignored by
	// MultiRSTkNN).
	K int
	// BoundTrace, when non-nil, receives this query's final kNN bounds
	// for every object-level candidate, exactly as Options.BoundTrace
	// does for RSTkNN. It must be safe for concurrent use when the batch
	// runs with more than one worker.
	BoundTrace func(objID int32, knnl, knnu float64)
	// Tracker, when non-nil, receives this query's simulated I/O.
	Tracker *storage.Tracker
}

// BatchMetrics reports the batch as a whole. Per-query work lives in the
// per-query Outcomes.
type BatchMetrics struct {
	// NodesRead is the sum of the items' Metrics.NodesRead: every item
	// reads its own nodes.
	NodesRead int
	// SharedHits is always 0.
	//
	// Deprecated: it counted the reads a shared batch traversal saved,
	// and batches no longer share a traversal.
	SharedHits int
}

// MultiOutcome is the result of one batch: one Outcome per BatchItem, in
// item order, plus the batch-level metrics.
type MultiOutcome struct {
	Outcomes []*Outcome
	Batch    BatchMetrics
}

// MultiRSTkNN answers a batch of reverse spatial-textual k nearest
// neighbor queries, one RSTkNN search per item in item order. Per-query
// inputs (the query point/vector, K, BoundTrace, the attribution
// Tracker) come from the items; everything else — Alpha, Sim, Strategy,
// GroupRefine, Workers, Ctx, and the batch-level Tracker that receives
// the sum of the items' I/O — comes from opt (opt.K and opt.BoundTrace
// are ignored). The first error stops the batch and is returned.
func MultiRSTkNN(t *iurtree.Snapshot, items []BatchItem, opt Options) (*MultiOutcome, error) {
	mo := &MultiOutcome{Outcomes: make([]*Outcome, len(items))}
	for i := range items {
		it := &items[i]
		if it.K <= 0 {
			return nil, fmt.Errorf("core: item %d: K must be positive, got %d", i, it.K)
		}
		o := opt
		o.K, o.BoundTrace, o.Tracker = it.K, it.BoundTrace, it.Tracker
		if o.Tracker == nil && opt.Tracker != nil {
			o.Tracker = new(storage.Tracker)
		}
		out, err := search(t, it.Query, o)
		if err != nil {
			return nil, err
		}
		opt.Tracker.Add(o.Tracker.Stats())
		mo.Outcomes[i] = out
		mo.Batch.NodesRead += out.Metrics.NodesRead
	}
	return mo, nil
}
