package rstknn

import (
	"context"
	"fmt"
	"math"
	"time"

	"rstknn/internal/baseline"
	"rstknn/internal/core"
	"rstknn/internal/geom"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// Result is the outcome of one reverse query.
type Result struct {
	// IDs lists the objects that would rank the query within their
	// top-k, ascending.
	IDs []int32
	// Stats describes the work performed.
	Stats QueryStats
}

// QueryStats describes the cost of one query under the simulated I/O
// model (one node read = ceil(nodeBytes/pageSize) page accesses). The
// I/O counters come from the query's own execution tracker — never from
// deltas of store-global counters — so they are exact even when many
// queries run concurrently.
type QueryStats struct {
	// Duration is the query's wall time. For a query answered by
	// BatchQuery it is the wall time of the batch's searches.
	Duration     time.Duration
	NodesRead    int
	PageAccesses int64
	CacheHits    int64
	// SharedReads is always 0.
	//
	// Deprecated: it counted the node reads a shared batch traversal
	// served from one fetch, and batches no longer share a traversal.
	SharedReads   int64
	ExactSims     int64
	BoundEvals    int64
	GroupPruned   int
	GroupReported int
	Candidates    int
	Refinements   int
}

// CacheHitRatio returns the fraction of this query's node reads that
// paid no simulated page I/O — buffer-pool hits over all reads — or 0
// when the query read nothing.
func (s QueryStats) CacheHitRatio() float64 {
	if s.NodesRead == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.NodesRead)
}

// validateQuery rejects the inputs that would otherwise give undefined
// behavior: non-positive k and NaN/Inf coordinates.
func validateQuery(x, y float64, k int) error {
	if k <= 0 {
		return fmt.Errorf("rstknn: k must be positive, got %d", k)
	}
	if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
		return fmt.Errorf("rstknn: query location (%g, %g) must be finite", x, y)
	}
	return nil
}

// Query answers the RSTkNN query for a prospective object at (x, y) with
// the given text: which indexed objects would rank it within their top-k?
func (e *Engine) Query(x, y float64, text string, k int) (*Result, error) {
	return e.QueryCtx(context.Background(), x, y, text, k)
}

// QueryCtx is Query with cancellation: the context is checked before
// every node read and the query aborts with ctx.Err() once it is done.
func (e *Engine) QueryCtx(ctx context.Context, x, y float64, text string, k int) (*Result, error) {
	return e.QueryVectorCtx(ctx, x, y, e.vectorize(text), k)
}

// QueryVector is Query with a pre-built term vector (advanced use: the
// vector must be weighted against this engine's vocabulary).
func (e *Engine) QueryVector(x, y float64, doc vector.Vector, k int) (*Result, error) {
	return e.QueryVectorCtx(context.Background(), x, y, doc, k)
}

// QueryVectorCtx is QueryVector with cancellation.
func (e *Engine) QueryVectorCtx(ctx context.Context, x, y float64, doc vector.Vector, k int) (res *Result, err error) {
	if err := validateQuery(x, y, k); err != nil {
		return nil, err
	}
	err = e.snap.Read(func(st *engineState) error {
		res, err = e.queryVector(ctx, st, x, y, doc, k)
		return err
	})
	return res, err
}

// coreOptions returns the engine's reverse-query options for one
// traversal: the configured alpha, measure, refinement strategy and
// group-refinement budget, with the given worker count, context and
// execution tracker. K is per query and left to the caller.
func (e *Engine) coreOptions(ctx context.Context, workers int, tr *storage.Tracker) core.Options {
	strategy := core.RefineByMaxUpper
	if e.opt.EntropyRefinement {
		strategy = core.RefineByEntropy
	}
	return core.Options{
		Alpha:       e.opt.Alpha,
		Sim:         e.measure,
		Strategy:    strategy,
		GroupRefine: e.opt.GroupRefine,
		Workers:     workers,
		Ctx:         ctx,
		Tracker:     tr,
	}
}

// queryStats reports one query's work: its logical counters from m, its
// I/O from its own tracker, and the wall time d.
func queryStats(m core.Metrics, tr *storage.Tracker, d time.Duration) QueryStats {
	return QueryStats{
		Duration:      d,
		NodesRead:     m.NodesRead,
		PageAccesses:  tr.PagesRead(),
		CacheHits:     tr.CacheHits(),
		ExactSims:     m.ExactSims,
		BoundEvals:    m.BoundEvals,
		GroupPruned:   m.GroupPruned,
		GroupReported: m.GroupReported,
		Candidates:    m.Candidates,
		Refinements:   m.Refinements,
	}
}

// queryVector runs one reverse query against a state inside Read.
func (e *Engine) queryVector(ctx context.Context, st *engineState, x, y float64, doc vector.Vector, k int) (*Result, error) {
	// The tracker is this query's execution context: all simulated I/O
	// of this query — and only this query — lands on it.
	var tracker storage.Tracker
	opt := e.coreOptions(ctx, e.opt.Workers, &tracker)
	opt.K = k
	start := time.Now()
	out, err := core.RSTkNN(st.tree, core.Query{Loc: geom.Point{X: x, Y: y}, Doc: doc}, opt)
	if err != nil {
		return nil, err
	}
	return &Result{IDs: out.Results, Stats: queryStats(out.Metrics, &tracker, time.Since(start))}, nil
}

// QueryByID answers the reverse query for an object already in the
// index: which *other* indexed objects would rank object id within their
// top-k? The object itself (which trivially ranks the query, similarity
// 1) is excluded from the result.
func (e *Engine) QueryByID(id int32, k int) (*Result, error) {
	return e.QueryByIDCtx(context.Background(), id, k)
}

// QueryByIDCtx is QueryByID with cancellation.
func (e *Engine) QueryByIDCtx(ctx context.Context, id int32, k int) (res *Result, err error) {
	err = e.snap.Read(func(st *engineState) error {
		i, ok := st.byID[id]
		if !ok {
			return fmt.Errorf("rstknn: unknown object ID %d", id)
		}
		o := st.objects[i]
		if err := validateQuery(o.Loc.X, o.Loc.Y, k); err != nil {
			return err
		}
		res, err = e.queryVector(ctx, st, o.Loc.X, o.Loc.Y, o.Doc, k)
		return err
	})
	if err != nil {
		return nil, err
	}
	filtered := res.IDs[:0]
	for _, rid := range res.IDs {
		if rid != id {
			filtered = append(filtered, rid)
		}
	}
	res.IDs = filtered
	return res, nil
}

// TopK returns the k indexed objects most similar to the given location
// and text, by descending similarity.
func (e *Engine) TopK(x, y float64, text string, k int) ([]Neighbor, error) {
	return e.TopKCtx(context.Background(), x, y, text, k)
}

// TopKCtx is TopK with cancellation.
func (e *Engine) TopKCtx(ctx context.Context, x, y float64, text string, k int) ([]Neighbor, error) {
	if err := validateQuery(x, y, k); err != nil {
		return nil, err
	}
	var nbs []core.Neighbor
	err := e.snap.Read(func(st *engineState) (err error) {
		nbs, _, err = core.TopK(st.tree, core.Query{Loc: geom.Point{X: x, Y: y}, Doc: e.vectorize(text)},
			core.TopKOptions{K: k, Alpha: e.opt.Alpha, Sim: e.measure, Exclude: -1, Ctx: ctx})
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(nbs))
	for i, nb := range nbs {
		out[i] = Neighbor{ID: nb.ID, Similarity: nb.Sim}
	}
	return out, nil
}

// Neighbor is one top-k result.
type Neighbor struct {
	ID         int32
	Similarity float64
}

// Influence answers the bichromatic reverse query: which of the given
// users would rank a facility at (x, y) with the given text within their
// top-k among this engine's indexed objects (treated as the facility
// set)? User text is weighted against the engine's corpus.
func (e *Engine) Influence(users []Object, x, y float64, text string, k int) ([]int32, error) {
	return e.InfluenceCtx(context.Background(), users, x, y, text, k)
}

// InfluenceCtx is Influence with cancellation.
func (e *Engine) InfluenceCtx(ctx context.Context, users []Object, x, y float64, text string, k int) (ids []int32, err error) {
	if err := validateQuery(x, y, k); err != nil {
		return nil, err
	}
	us := make([]iurtree.Object, len(users))
	for i, u := range users {
		us[i] = iurtree.Object{ID: u.ID, Loc: geom.Point{X: u.X, Y: u.Y}, Doc: e.vectorize(u.Text)}
	}
	err = e.snap.Read(func(st *engineState) error {
		var tracker storage.Tracker
		out, err := core.BichromaticRSTkNN(st.tree, us,
			core.Query{Loc: geom.Point{X: x, Y: y}, Doc: e.vectorize(text)},
			core.BichromaticOptions{K: k, Alpha: e.opt.Alpha, Sim: e.measure,
				Workers: e.opt.Workers, Ctx: ctx, Tracker: &tracker})
		if err != nil {
			return err
		}
		ids = out.UserIDs
		return nil
	})
	return ids, err
}

// QueryRequest is one unit of work for BatchQuery.
type QueryRequest struct {
	X, Y float64
	Text string
	K    int
}

// BatchResult pairs one BatchQuery answer with its error; exactly one of
// the two fields is meaningful.
type BatchResult struct {
	Result *Result
	Err    error
}

// BatchStats describes one BatchQuery invocation as a whole.
type BatchStats struct {
	// Requests is the batch size.
	Requests int
	// Shared is always false.
	//
	// Deprecated: it told whether a shared batch traversal answered the
	// batch, and batches no longer share a traversal.
	Shared bool
	// Duration is the whole batch's wall time.
	Duration time.Duration
	// NodesRead is the sum of the requests' NodesRead: every request
	// reads its own nodes.
	NodesRead int
	// SharedHits is always 0.
	//
	// Deprecated: it counted the reads a shared batch traversal saved,
	// and batches no longer share a traversal.
	SharedHits int
	// NodesReadPerQuery is NodesRead divided by the number of requests.
	NodesReadPerQuery float64
	// PageAccesses is the sum of the requests' PageAccesses.
	PageAccesses int64
}

// BatchQuery answers many reverse queries against one pinned snapshot:
// concurrent Insert/Delete/Apply calls do not affect the batch, and
// every request sees the same index version. Results are returned in
// request order, each with its own per-query QueryStats.
//
// The requests are answered one after another, each by the same search
// QueryCtx runs, so per-request results and QueryStats counters equal
// those of QueryCtx calls in request order. parallelism sizes each
// search's worker pool, as Options.Workers does for QueryCtx (values
// <= 0 default to runtime.GOMAXPROCS(0), values above it are clamped).
func (e *Engine) BatchQuery(reqs []QueryRequest, parallelism int) []BatchResult {
	return e.BatchQueryCtx(context.Background(), reqs, parallelism)
}

// BatchQueryCtx is BatchQuery with cancellation: once the context is
// done, not-yet-started requests fail fast with ctx.Err() and running
// ones abort at their next node read.
func (e *Engine) BatchQueryCtx(ctx context.Context, reqs []QueryRequest, parallelism int) []BatchResult {
	out, _ := e.BatchQueryStatsCtx(ctx, reqs, parallelism)
	return out
}

// BatchQueryStatsCtx is BatchQueryCtx plus the batch-level BatchStats.
// Invalid requests fail individually and are left out of the batch; an
// error from the searches (cancellation, I/O) fails every valid request.
func (e *Engine) BatchQueryStatsCtx(ctx context.Context, reqs []QueryRequest, parallelism int) ([]BatchResult, BatchStats) {
	out := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out, BatchStats{}
	}
	start := time.Now()
	var bs BatchStats
	_ = e.snap.Read(func(st *engineState) error {
		bs = e.batch(ctx, st, reqs, parallelism, out)
		return nil
	})
	bs.Requests = len(reqs)
	bs.Duration = time.Since(start)
	bs.NodesReadPerQuery = float64(bs.NodesRead) / float64(len(reqs))
	return out, bs
}

// batch answers the valid requests with one core.MultiRSTkNN call.
func (e *Engine) batch(ctx context.Context, st *engineState, reqs []QueryRequest, parallelism int, out []BatchResult) BatchStats {
	if err := ctx.Err(); err != nil {
		for i := range out {
			out[i] = BatchResult{Err: err}
		}
		return BatchStats{}
	}
	items := make([]core.BatchItem, 0, len(reqs))
	idxs := make([]int, 0, len(reqs))
	trackers := make([]storage.Tracker, len(reqs))
	for i, r := range reqs {
		if err := validateQuery(r.X, r.Y, r.K); err != nil {
			out[i] = BatchResult{Err: err}
			continue
		}
		items = append(items, core.BatchItem{
			Query:   core.Query{Loc: geom.Point{X: r.X, Y: r.Y}, Doc: e.vectorize(r.Text)},
			K:       r.K,
			Tracker: &trackers[i],
		})
		idxs = append(idxs, i)
	}
	if len(items) == 0 {
		return BatchStats{}
	}
	// batchTracker receives the sum of the requests' I/O.
	var batchTracker storage.Tracker
	start := time.Now()
	mo, err := core.MultiRSTkNN(st.tree, items, e.coreOptions(ctx, parallelism, &batchTracker))
	if err != nil {
		for _, i := range idxs {
			out[i] = BatchResult{Err: err}
		}
		return BatchStats{}
	}
	elapsed := time.Since(start)
	for j, i := range idxs {
		o := mo.Outcomes[j]
		out[i] = BatchResult{Result: &Result{IDs: o.Results, Stats: queryStats(o.Metrics, &trackers[i], elapsed)}}
	}
	return BatchStats{NodesRead: mo.Batch.NodesRead, PageAccesses: batchTracker.PagesRead()}
}

// NaiveQuery answers the same reverse query by exhaustive scan — the
// correctness oracle and the paper's comparison baseline. Exposed so
// downstream users can sanity-check and benchmark on their own data.
func (e *Engine) NaiveQuery(x, y float64, text string, k int) (ids []int32, err error) {
	err = e.snap.Read(func(st *engineState) error {
		ids, err = baseline.Naive(st.objects, core.Query{Loc: geom.Point{X: x, Y: y}, Doc: e.vectorize(text)},
			k, e.opt.Alpha, st.tree.MaxD(), e.measure)
		return err
	})
	return ids, err
}
