package core

import (
	"sync"
	"sync/atomic"

	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
)

// Shared-traversal batch execution.
//
// Answering N reverse queries independently reads the top levels of the
// IUR-tree N times: every query descends through the same root fan-out,
// and on clustered workloads the frontiers overlap far below that. The
// multi-query search runs ONE branch-and-bound traversal for the whole
// batch instead. Each frontier slot is a tree entry together with its
// *active-query set* — the batch queries that still have undecided
// groups below that entry. A node page is fetched at most once per
// batch, through a once-per-node table; the fetched node is then scored
// against every active query, and
// each query's membership is pruned independently via the same
// Scorer/contributionList machinery the single-query search
// uses. Queries drop out of a subtree exactly when an independent run
// would have pruned or reported it, so per-query Results, Metrics, and
// kNN bounds are bit-identical to N independent RSTkNN calls — only the
// physical I/O is amortized.
//
// RSTkNN runs the same traversal over a one-item batch without the node
// table (see rstknn.go). Workers split the frontier by node, never by
// query, and every verdict depends only on the (query, group)'s own
// contribution list, so results and per-query Metrics are identical at
// every worker count, and Workers:1 is bit-for-bit deterministic.
//
// Tracker attribution rule: physical I/O (ChargeRead/ChargeCacheHit) is
// charged exactly once per distinct node, to the batch-level
// opt.Tracker. Every query that consumes a node — including the one
// whose expansion triggered the fetch — records one ChargeSharedRead on
// its own BatchItem.Tracker and counts the node in its Metrics.NodesRead,
// keeping the per-query logical counters identical to an independent run.

// BatchItem is one query of a shared-traversal batch: the per-query
// inputs that vary across the batch, while everything shared (alpha,
// similarity measure, refinement strategy, worker pool, context, the
// batch-level tracker) comes from the Options passed to MultiRSTkNN.
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
	// Tracker, when non-nil, receives this query's shared-read
	// attributions (one ChargeSharedRead per logical node read).
	Tracker *storage.Tracker
}

// BatchMetrics reports the batch-level amortization the shared traversal
// achieved. Per-query work lives in the per-query Outcomes.
type BatchMetrics struct {
	// NodesRead is the number of distinct nodes physically fetched for
	// the whole batch — the I/O an independent run would multiply.
	NodesRead int
	// SharedHits counts the logical node reads served by a node the
	// batch had already fetched: the sum of per-query
	// Metrics.NodesRead minus NodesRead.
	SharedHits int
}

// MultiOutcome is the result of one shared-traversal batch: one Outcome
// per BatchItem, in item order, plus the batch-level amortization
// metrics.
type MultiOutcome struct {
	Outcomes []*Outcome
	Batch    BatchMetrics
}

// batchTable is the once-per-node table of one batch: the first query to
// need a node fetches it (charging the physical I/O to the batch
// tracker) and every later consumer gets the same shared decode, which
// is immutable and so safe to read from every worker goroutine.
type batchTable struct {
	tree *iurtree.Snapshot
	tr   *storage.Tracker
	phys atomic.Int64

	mu    sync.Mutex
	nodes map[storage.NodeID]*batchSlot
}

// batchSlot is one node's entry in the table. The sync.Once serializes
// the fetch without holding the table mutex across I/O.
type batchSlot struct {
	once sync.Once
	node *iurtree.Node
	err  error
}

func newBatchTable(tree *iurtree.Snapshot, tr *storage.Tracker) *batchTable {
	return &batchTable{tree: tree, tr: tr, nodes: make(map[storage.NodeID]*batchSlot)}
}

// load returns the node's shared decode, fetching it on first use.
func (b *batchTable) load(id storage.NodeID) (*iurtree.Node, error) {
	b.mu.Lock()
	s := b.nodes[id]
	if s == nil {
		s = &batchSlot{}
		b.nodes[id] = s
	}
	b.mu.Unlock()
	s.once.Do(func() {
		b.phys.Add(1)
		s.node, s.err = b.tree.ReadSharedTracked(id, b.tr)
	})
	return s.node, s.err
}

// MultiRSTkNN answers a batch of reverse spatial-textual k nearest
// neighbor queries in one shared tree traversal. Per-query inputs (the
// query point/vector, K, BoundTrace, the attribution Tracker) come from
// the items; everything else — Alpha, Sim, Strategy, GroupRefine,
// Workers, Ctx, and the batch-level Tracker the physical
// I/O is charged to — comes from opt (opt.K and opt.BoundTrace are
// ignored). The returned Outcomes are index-aligned with items and
// bit-identical — Results, Metrics, and traced kNN bounds — to
// independent RSTkNN calls with the same per-query options, at every
// worker count.
func MultiRSTkNN(t *iurtree.Snapshot, items []BatchItem, opt Options) (*MultiOutcome, error) {
	return search(t, items, opt, true)
}
