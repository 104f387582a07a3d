package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"rstknn/internal/core"
	"rstknn/internal/storage"
)

// TestBatchSharedMatchesIndependent is the equivalence property of batch
// execution: for every tree variant and refinement strategy,
// MultiRSTkNN must reproduce N independent RSTkNN calls exactly — same
// per-query result IDs, same per-query Metrics, bit-identical per-object
// kNN bounds and the same I/O on each item's tracker — at every worker
// count, with the batch tracker holding the sum.
func TestBatchSharedMatchesIndependent(t *testing.T) {
	// The searcher clamps Workers to GOMAXPROCS, so on a 1-CPU machine
	// the multi-goroutine rounds would never spawn and the worker sweep
	// below would silently test the inline path four times. Raise the
	// cap for the duration of the test to exercise real concurrency
	// (and give -race something to bite on).
	if runtime.GOMAXPROCS(0) < 4 {
		prev := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	rng := rand.New(rand.NewSource(42))
	configs := []struct {
		name        string
		clusters    int
		strategy    core.RefineStrategy
		groupRefine int
	}{
		{"iur-maxupper", 0, core.RefineByMaxUpper, 0},
		{"iur-entropy", 0, core.RefineByEntropy, 0},
		{"ciur-maxupper", 6, core.RefineByMaxUpper, 0},
		{"ciur-entropy", 6, core.RefineByEntropy, 0},
		{"iur-maxupper-refine", 0, core.RefineByMaxUpper, 2},
		{"ciur-entropy-refine", 6, core.RefineByEntropy, 2},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			objs := genObjects(rng, 220+rng.Intn(120), 40, 6)
			tree := buildTree(t, objs, cfg.clusters, false)
			const nq = 8
			queries := make([]core.Query, nq)
			ks := make([]int, nq)
			for i := range queries {
				queries[i] = genQuery(rng, 40, 6)
				ks[i] = []int{1, 3, 10}[rng.Intn(3)]
			}
			opt := func() core.Options {
				return core.Options{
					Alpha:       0.5,
					Strategy:    cfg.strategy,
					GroupRefine: cfg.groupRefine,
				}
			}

			// The independent reference: one standalone call per query.
			indep := make([]*core.Outcome, nq)
			indepRec := make([]*boundRecorder, nq)
			indepIO := make([]storage.Stats, nq)
			logical := 0
			var total storage.Tracker
			for i := range queries {
				rec := newBoundRecorder()
				var tr storage.Tracker
				o := opt()
				o.K = ks[i]
				o.Workers = 1
				o.BoundTrace = rec.trace
				o.Tracker = &tr
				out, err := core.RSTkNN(tree, queries[i], o)
				if err != nil {
					t.Fatalf("independent query %d: %v", i, err)
				}
				indep[i] = out
				indepRec[i] = rec
				indepIO[i] = tr.Stats()
				total.Add(tr.Stats())
				logical += out.Metrics.NodesRead
			}

			for _, workers := range []int{1, 2, 4, 8} {
				recs := make([]*boundRecorder, nq)
				trackers := make([]storage.Tracker, nq)
				items := make([]core.BatchItem, nq)
				for i := range items {
					recs[i] = newBoundRecorder()
					items[i] = core.BatchItem{
						Query:      queries[i],
						K:          ks[i],
						BoundTrace: recs[i].trace,
						Tracker:    &trackers[i],
					}
				}
				var batchTracker storage.Tracker
				o := opt()
				o.Workers = workers
				o.Tracker = &batchTracker
				mo, err := core.MultiRSTkNN(tree, items, o)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if len(mo.Outcomes) != nq {
					t.Fatalf("workers=%d: %d outcomes for %d items", workers, len(mo.Outcomes), nq)
				}
				for i := range items {
					tag := fmt.Sprintf("workers=%d query=%d k=%d", workers, i, ks[i])
					got, want := mo.Outcomes[i], indep[i]
					if !idsEqual(got.Results, want.Results) {
						t.Errorf("%s: results %v != independent %v", tag, got.Results, want.Results)
					}
					if got.Metrics != want.Metrics {
						t.Errorf("%s: metrics %+v != independent %+v", tag, got.Metrics, want.Metrics)
					}
					if got := trackers[i].Stats(); got != indepIO[i] {
						t.Errorf("%s: item tracker %+v != independent %+v", tag, got, indepIO[i])
					}
					if len(recs[i].bounds) != len(indepRec[i].bounds) {
						t.Errorf("%s: %d object verdicts != independent %d",
							tag, len(recs[i].bounds), len(indepRec[i].bounds))
					}
					for id, want := range indepRec[i].bounds {
						got, ok := recs[i].bounds[id]
						if !ok {
							t.Errorf("%s: object %d missing from batch verdicts", tag, id)
							continue
						}
						if got != want {
							t.Errorf("%s: object %d kNN bounds %v != independent %v", tag, id, got, want)
						}
					}
				}
				// The batch totals are the sums of the items'.
				if mo.Batch.NodesRead != logical || mo.Batch.SharedHits != 0 {
					t.Errorf("workers=%d: batch metrics %+v, want %d reads and no shared hits", workers, mo.Batch, logical)
				}
				if got, want := batchTracker.Stats(), total.Stats(); got != want {
					t.Errorf("workers=%d: batch tracker %+v != sum of independent %+v", workers, got, want)
				}
			}
		})
	}
}

// TestMultiRSTkNNValidation pins the input checks: a non-positive
// per-item K and an out-of-range Alpha must fail the whole batch.
func TestMultiRSTkNNValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	objs := genObjects(rng, 40, 20, 4)
	tree := buildTree(t, objs, 0, false)
	q := genQuery(rng, 20, 4)
	if _, err := core.MultiRSTkNN(tree, []core.BatchItem{{Query: q, K: 3}, {Query: q, K: 0}},
		core.Options{Alpha: 0.5}); err == nil {
		t.Error("K=0 item accepted")
	}
	if _, err := core.MultiRSTkNN(tree, []core.BatchItem{{Query: q, K: 3}},
		core.Options{Alpha: 1.5}); err == nil {
		t.Error("Alpha=1.5 accepted")
	}
}

// TestMultiRSTkNNEdgeTrees pins the degenerate shapes: an empty batch and
// the single-object tree (whose sole object is always a result, for
// every query of the batch, at one read per query).
func TestMultiRSTkNNEdgeTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	objs := genObjects(rng, 40, 20, 4)
	tree := buildTree(t, objs, 0, false)
	mo, err := core.MultiRSTkNN(tree, nil, core.Options{Alpha: 0.5})
	if err != nil || len(mo.Outcomes) != 0 {
		t.Fatalf("empty batch: outcomes=%d err=%v", len(mo.Outcomes), err)
	}

	single := buildTree(t, objs[:1], 0, false)
	var batchTracker storage.Tracker
	items := []core.BatchItem{
		{Query: genQuery(rng, 20, 4), K: 2},
		{Query: genQuery(rng, 20, 4), K: 5},
	}
	mo, err = core.MultiRSTkNN(single, items, core.Options{Alpha: 0.5, Tracker: &batchTracker})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range mo.Outcomes {
		if len(o.Results) != 1 || o.Results[0] != objs[0].ID {
			t.Errorf("query %d: results %v, want [%d]", i, o.Results, objs[0].ID)
		}
		if o.Metrics.NodesRead != 1 || o.Metrics.Candidates != 1 {
			t.Errorf("query %d: metrics %+v, want one read and one candidate", i, o.Metrics)
		}
	}
	if mo.Batch.NodesRead != 2 || mo.Batch.SharedHits != 0 || batchTracker.Reads() != 2 {
		t.Errorf("single-object batch metrics %+v, tracker %+v, want 2 reads and no shared hits",
			mo.Batch, batchTracker.Stats())
	}
}

// TestMultiRSTkNNCancellation pins fail-fast on a done context.
func TestMultiRSTkNNCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	objs := genObjects(rng, 60, 20, 4)
	tree := buildTree(t, objs, 0, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := core.MultiRSTkNN(tree, []core.BatchItem{{Query: genQuery(rng, 20, 4), K: 3}},
		core.Options{Alpha: 0.5, Ctx: ctx})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
