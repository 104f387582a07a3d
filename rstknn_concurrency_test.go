package rstknn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// The concurrency contract: any number of goroutines may query one
// Engine, each query's results match what a sequential run returns, and
// each query's QueryStats are attributed exactly to that query.

// concOp is one element of the mixed workload: it runs a query and
// returns a comparable fingerprint of (results, I/O attribution).
type concOp struct {
	kind string // "query", "byid", "topk"
	x, y float64
	text string
	id   int32
	k    int
}

func genWorkload(rng *rand.Rand, n int, objs []Object) []concOp {
	texts := []string{"sushi seafood", "noodles ramen", "pizza pasta", "steak grill", "tapas wine"}
	ops := make([]concOp, n)
	for i := range ops {
		switch rng.Intn(3) {
		case 0:
			ops[i] = concOp{kind: "query", x: rng.Float64() * 100, y: rng.Float64() * 100,
				text: texts[rng.Intn(len(texts))], k: 1 + rng.Intn(8)}
		case 1:
			ops[i] = concOp{kind: "byid", id: objs[rng.Intn(len(objs))].ID, k: 1 + rng.Intn(8)}
		default:
			ops[i] = concOp{kind: "topk", x: rng.Float64() * 100, y: rng.Float64() * 100,
				text: texts[rng.Intn(len(texts))], k: 1 + rng.Intn(8)}
		}
	}
	return ops
}

// opOutcome captures everything the stress test compares across runs.
type opOutcome struct {
	ids       []int32
	neighbors []Neighbor
	nodes     int
	pages     int64
	hits      int64
	err       string
}

func runOp(e *Engine, op concOp) opOutcome {
	switch op.kind {
	case "query":
		res, err := e.Query(op.x, op.y, op.text, op.k)
		if err != nil {
			return opOutcome{err: err.Error()}
		}
		return opOutcome{ids: res.IDs, nodes: res.Stats.NodesRead,
			pages: res.Stats.PageAccesses, hits: res.Stats.CacheHits}
	case "byid":
		res, err := e.QueryByID(op.id, op.k)
		if err != nil {
			return opOutcome{err: err.Error()}
		}
		return opOutcome{ids: res.IDs, nodes: res.Stats.NodesRead,
			pages: res.Stats.PageAccesses, hits: res.Stats.CacheHits}
	default:
		nbs, err := e.TopK(op.x, op.y, op.text, op.k)
		if err != nil {
			return opOutcome{err: err.Error()}
		}
		return opOutcome{neighbors: nbs}
	}
}

// TestConcurrentQueriesMatchSequential is the stress test from the
// execution-context design: G goroutines share one Engine over a mixed
// workload, and every operation must return exactly what a sequential
// run returns, with self-consistent per-query stats.
func TestConcurrentQueriesMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	objs := genRestaurants(rng, 600)

	engines := []struct {
		name string
		opt  Options
	}{
		// No cache at all: attribution must be bit-exact vs sequential.
		{"cold", Options{}},
		// Buffer pool: results still exact; I/O may shift between pages
		// and cache hits depending on interleaving.
		{"cached", Options{BufferPoolPages: 512}},
	}
	for _, ec := range engines {
		t.Run(ec.name, func(t *testing.T) {
			eng, err := Build(objs, ec.opt)
			if err != nil {
				t.Fatal(err)
			}
			noPinsAtCleanup(t, eng)
			nOps := 96
			if testing.Short() {
				nOps = 24
			}
			ops := genWorkload(rand.New(rand.NewSource(11)), nOps, objs)

			// For the cold engine every run is identical; compute the
			// baseline on a second identical engine so the sequential pass
			// cannot warm anything the concurrent pass then reuses.
			base, err := Build(objs, ec.opt)
			if err != nil {
				t.Fatal(err)
			}
			noPinsAtCleanup(t, base)
			want := make([]opOutcome, len(ops))
			for i, op := range ops {
				want[i] = runOp(base, op)
				if want[i].err != "" {
					t.Fatalf("sequential op %d failed: %s", i, want[i].err)
				}
			}

			const goroutines = 8
			got := make([]opOutcome, len(ops))
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					// Each goroutine walks the whole workload in a different
					// order so identical ops overlap in time.
					for j := 0; j < len(ops); j++ {
						i := (j*goroutines + g) % len(ops)
						out := runOp(eng, ops[i])
						if g == i%goroutines {
							got[i] = out
						}
					}
				}(g)
			}
			wg.Wait()

			for i := range ops {
				if got[i].err != "" {
					t.Fatalf("concurrent op %d failed: %s", i, got[i].err)
				}
				if !reflect.DeepEqual(got[i].ids, want[i].ids) || !reflect.DeepEqual(got[i].neighbors, want[i].neighbors) {
					t.Fatalf("op %d (%s): concurrent result differs from sequential:\n got %+v\nwant %+v",
						i, ops[i].kind, got[i], want[i])
				}
				if ops[i].kind == "topk" {
					continue // TopK reports no QueryStats
				}
				// Per-query stats must be self-consistent regardless of
				// interleaving: every node read is either page I/O or a hit.
				if got[i].nodes <= 0 {
					t.Fatalf("op %d: NodesRead = %d, want > 0", i, got[i].nodes)
				}
				if got[i].pages+got[i].hits < int64(got[i].nodes) {
					t.Fatalf("op %d: PageAccesses(%d) + CacheHits(%d) < NodesRead(%d)",
						i, got[i].pages, got[i].hits, got[i].nodes)
				}
				if ec.name == "cold" {
					// No cache: attribution is deterministic and exact.
					if got[i].hits != 0 {
						t.Fatalf("op %d: CacheHits = %d on a cache-less engine", i, got[i].hits)
					}
					if got[i].nodes != want[i].nodes || got[i].pages != want[i].pages {
						t.Fatalf("op %d: I/O attribution drifted under concurrency: got nodes=%d pages=%d, want nodes=%d pages=%d",
							i, got[i].nodes, got[i].pages, want[i].nodes, want[i].pages)
					}
					if got[i].pages < int64(got[i].nodes) {
						t.Fatalf("op %d: PageAccesses(%d) < NodesRead(%d) on cold store",
							i, got[i].pages, got[i].nodes)
					}
				}
			}
		})
	}
}

func TestConcurrentBatchQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	eng, err := Build(genRestaurants(rng, 800), Options{})
	if err != nil {
		t.Fatal(err)
	}
	noPinsAtCleanup(t, eng)
	reqs := make([]QueryRequest, 40)
	for i := range reqs {
		reqs[i] = QueryRequest{X: rng.Float64() * 100, Y: rng.Float64() * 100,
			Text: "sushi seafood", K: 1 + i%7}
	}
	seq := eng.BatchQuery(reqs, 1)
	par := eng.BatchQuery(reqs, 6)
	for i := range reqs {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("request %d failed: seq=%v par=%v", i, seq[i].Err, par[i].Err)
		}
		if !reflect.DeepEqual(seq[i].Result.IDs, par[i].Result.IDs) {
			t.Fatalf("request %d: parallel batch returned %v, sequential %v",
				i, par[i].Result.IDs, seq[i].Result.IDs)
		}
		if seq[i].Result.Stats.PageAccesses != par[i].Result.Stats.PageAccesses {
			t.Fatalf("request %d: per-query page attribution drifted: %d vs %d",
				i, seq[i].Result.Stats.PageAccesses, par[i].Result.Stats.PageAccesses)
		}
	}
}

// TestIntraQueryParallelUnderConcurrentCallers stacks both concurrency
// axes: every query fans its candidate frontier across intra-query
// workers (Options.Workers) while several goroutines hammer the same
// engine through BatchQuery. Run under -race this is the stress test for
// the worker pool's sharing discipline (scratch arenas, scorer copies,
// tracker counters); the assertions pin that results and I/O attribution
// still match a purely sequential engine.
func TestIntraQueryParallelUnderConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	objs := genRestaurants(rng, 600)
	par, err := Build(objs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	noPinsAtCleanup(t, par)
	seq, err := Build(objs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	noPinsAtCleanup(t, seq)
	reqs := make([]QueryRequest, 48)
	texts := []string{"sushi seafood", "noodles ramen", "pizza pasta", "steak grill"}
	for i := range reqs {
		reqs[i] = QueryRequest{X: rng.Float64() * 100, Y: rng.Float64() * 100,
			Text: texts[i%len(texts)], K: 1 + i%9}
	}
	want := seq.BatchQuery(reqs, 1)

	const callers = 4
	outs := make([][]BatchResult, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outs[g] = par.BatchQuery(reqs, 2)
		}(g)
	}
	wg.Wait()

	for g, got := range outs {
		for i := range reqs {
			if want[i].Err != nil || got[i].Err != nil {
				t.Fatalf("caller %d request %d failed: seq=%v par=%v", g, i, want[i].Err, got[i].Err)
			}
			if !reflect.DeepEqual(got[i].Result.IDs, want[i].Result.IDs) {
				t.Fatalf("caller %d request %d: parallel engine returned %v, sequential %v",
					g, i, got[i].Result.IDs, want[i].Result.IDs)
			}
			if got[i].Result.Stats.NodesRead != want[i].Result.Stats.NodesRead ||
				got[i].Result.Stats.PageAccesses != want[i].Result.Stats.PageAccesses {
				t.Fatalf("caller %d request %d: I/O attribution drifted: got nodes=%d pages=%d, want nodes=%d pages=%d",
					g, i, got[i].Result.Stats.NodesRead, got[i].Result.Stats.PageAccesses,
					want[i].Result.Stats.NodesRead, want[i].Result.Stats.PageAccesses)
			}
		}
	}
}

func TestQueryCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	eng, err := Build(genRestaurants(rng, 500), Options{})
	if err != nil {
		t.Fatal(err)
	}
	noPinsAtCleanup(t, eng)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.QueryCtx(ctx, 50, 50, "sushi", 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryCtx with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := eng.TopKCtx(ctx, 50, 50, "sushi", 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("TopKCtx with cancelled ctx: err = %v, want context.Canceled", err)
	}
	out := eng.BatchQueryCtx(ctx, []QueryRequest{{X: 1, Y: 1, Text: "sushi", K: 3}}, 2)
	if !errors.Is(out[0].Err, context.Canceled) {
		t.Fatalf("BatchQueryCtx with cancelled ctx: err = %v, want context.Canceled", out[0].Err)
	}
}

func TestQueryValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	eng, err := Build(genRestaurants(rng, 100), Options{})
	if err != nil {
		t.Fatal(err)
	}
	noPinsAtCleanup(t, eng)
	bad := []struct {
		name    string
		x, y    float64
		k       int
		wantSub string
	}{
		{"zero k", 1, 1, 0, "k must be positive"},
		{"negative k", 1, 1, -3, "k must be positive"},
		{"NaN x", math.NaN(), 1, 5, "must be finite"},
		{"Inf y", 1, math.Inf(1), 5, "must be finite"},
		{"-Inf x", math.Inf(-1), 1, 5, "must be finite"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := eng.Query(tc.x, tc.y, "sushi", tc.k); err == nil || !containsSub(err, tc.wantSub) {
				t.Errorf("Query(%g,%g,k=%d): err = %v, want substring %q", tc.x, tc.y, tc.k, err, tc.wantSub)
			}
			if _, err := eng.QueryVector(tc.x, tc.y, eng.vectorize("sushi"), tc.k); err == nil || !containsSub(err, tc.wantSub) {
				t.Errorf("QueryVector(%g,%g,k=%d): err = %v, want substring %q", tc.x, tc.y, tc.k, err, tc.wantSub)
			}
			if _, err := eng.TopK(tc.x, tc.y, "sushi", tc.k); err == nil || !containsSub(err, tc.wantSub) {
				t.Errorf("TopK(%g,%g,k=%d): err = %v, want substring %q", tc.x, tc.y, tc.k, err, tc.wantSub)
			}
			res := eng.BatchQuery([]QueryRequest{{X: tc.x, Y: tc.y, Text: "sushi", K: tc.k}}, 1)
			if res[0].Err == nil || !containsSub(res[0].Err, tc.wantSub) {
				t.Errorf("BatchQuery(%g,%g,k=%d): err = %v, want substring %q", tc.x, tc.y, tc.k, res[0].Err, tc.wantSub)
			}
		})
	}
}

func containsSub(err error, sub string) bool {
	return err != nil && strings.Contains(err.Error(), sub)
}
