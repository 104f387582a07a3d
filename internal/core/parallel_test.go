package core_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"rstknn/internal/core"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
)

// boundRecorder collects the final kNN bounds of every object-level
// verdict via Options.BoundTrace, locked because the parallel engine
// fires the hook from multiple workers.
type boundRecorder struct {
	mu     sync.Mutex
	bounds map[int32][2]float64
}

func newBoundRecorder() *boundRecorder {
	return &boundRecorder{bounds: make(map[int32][2]float64)}
}

func (r *boundRecorder) trace(objID int32, knnl, knnu float64) {
	r.mu.Lock()
	r.bounds[objID] = [2]float64{knnl, knnu}
	r.mu.Unlock()
}

// TestBichromaticParallelMatchesSequential pins the same property for
// the bichromatic per-user fan-out: influenced-user sets and summed
// Metrics are identical at every worker count.
func TestBichromaticParallelMatchesSequential(t *testing.T) {
	// Workers is clamped to GOMAXPROCS; raise it so workers 2/4/8 spawn
	// real goroutines on a 1-CPU machine and -race sees the fan-out.
	if runtime.GOMAXPROCS(0) < 4 {
		prev := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	rng := rand.New(rand.NewSource(101))
	facilities := genObjects(rng, 250, 25, 5)
	users := genObjects(rng, 90, 25, 5)
	tree := buildTree(t, facilities, 0, false)
	for _, k := range []int{1, 3, 8} {
		q := genQuery(rng, 25, 5)
		run := func(workers int) *core.BichromaticOutcome {
			got, err := core.BichromaticRSTkNN(tree, users, q, core.BichromaticOptions{
				K: k, Alpha: 0.4, Workers: workers,
			})
			if err != nil {
				t.Fatalf("k=%d workers=%d: %v", k, workers, err)
			}
			return got
		}
		seq := run(1)
		for _, workers := range []int{2, 4, 8} {
			par := run(workers)
			if !idsEqual(par.UserIDs, seq.UserIDs) {
				t.Errorf("k=%d workers=%d: users %v != sequential %v",
					k, workers, par.UserIDs, seq.UserIDs)
			}
			if par.Metrics != seq.Metrics {
				t.Errorf("k=%d workers=%d: metrics %+v != sequential %+v",
					k, workers, par.Metrics, seq.Metrics)
			}
		}
	}
}

// TestBoundCacheMatchesEagerDecode pins the bound cache's equivalence
// ablation. Three cache settings must give the same outcome — result
// IDs, Metrics, and bit-identical per-object kNN bounds — sequentially,
// across the worker pool, and in a MultiRSTkNN batch: the default cache;
// no cache, where every node visit decodes afresh; and a cache of 8
// nodes, which evicts nodes that candidates and contributors of the
// running query still point into. (Simulated I/O parity is inherent:
// cache hits never skip the page charge, see Metrics.NodesRead
// equality.)
func TestBoundCacheMatchesEagerDecode(t *testing.T) {
	// Workers is clamped to GOMAXPROCS; raise it so the 4-worker runs
	// spawn real goroutines on a 1-CPU machine and -race sees them.
	if runtime.GOMAXPROCS(0) < 4 {
		prev := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	type result struct {
		out *core.Outcome
		rec *boundRecorder
	}
	rng := rand.New(rand.NewSource(77))
	for _, clusters := range []int{0, 6} {
		// 500 objects make about 17 nodes at the default fan-out, so
		// the 8-node cache below evicts within every query.
		objs := genObjects(rng, 500, 40, 6)
		tree := buildTree(t, objs, clusters, false)
		nodes := 0
		if err := tree.Walk(nil, func(*iurtree.Node, int) error { nodes++; return nil }); err != nil {
			t.Fatal(err)
		}
		const tinyCache = 8
		if nodes <= tinyCache {
			t.Fatalf("clusters=%d: tree has %d nodes, a %d-node cache would not evict", clusters, nodes, tinyCache)
		}
		var qs []core.Query
		var ks []int
		for trial := 0; trial < 3; trial++ {
			ks = append(ks, []int{1, 3, 10}[rng.Intn(3)])
			qs = append(qs, genQuery(rng, 40, 6))
		}
		runAll := func(workers int) []result {
			var rs []result
			for i, q := range qs {
				rec := newBoundRecorder()
				out, err := core.RSTkNN(tree, q, core.Options{
					K: ks[i], Alpha: 0.5, Workers: workers, BoundTrace: rec.trace,
				})
				if err != nil {
					t.Fatal(err)
				}
				rs = append(rs, result{out, rec})
			}
			return rs
		}
		runBatch := func(workers int) []result {
			items := make([]core.BatchItem, len(qs))
			recs := make([]*boundRecorder, len(qs))
			for i, q := range qs {
				recs[i] = newBoundRecorder()
				items[i] = core.BatchItem{Query: q, K: ks[i], BoundTrace: recs[i].trace}
			}
			mo, err := core.MultiRSTkNN(tree, items, core.Options{Alpha: 0.5, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			rs := make([]result, len(qs))
			for i := range rs {
				rs[i] = result{mo.Outcomes[i], recs[i]}
			}
			return rs
		}

		runs := map[string][]result{
			"default/workers=1": runAll(1),
			"default/workers=4": runAll(4),
		}
		tree.SetBoundCache(0)
		eager := runAll(1)
		tree.SetBoundCache(tinyCache)
		runs["tiny/workers=4"] = runAll(4)
		runs["tiny/batch"] = runBatch(4)
		if st := tree.BoundCacheStats(); st.Misses <= int64(nodes) {
			t.Errorf("clusters=%d: %d-node cache missed %d times over a %d-node tree, want evictions",
				clusters, tinyCache, st.Misses, nodes)
		}
		tree.SetBoundCache(iurtree.DefaultBoundCacheNodes)

		for name, rs := range runs {
			for i, got := range rs {
				want := eager[i]
				tag := fmt.Sprintf("clusters=%d query=%d k=%d %s", clusters, i, ks[i], name)
				if !idsEqual(got.out.Results, want.out.Results) {
					t.Errorf("%s: results differ from the uncached decode", tag)
				}
				if got.out.Metrics != want.out.Metrics {
					t.Errorf("%s: metrics %+v != uncached %+v", tag, got.out.Metrics, want.out.Metrics)
				}
				if len(got.rec.bounds) != len(want.rec.bounds) {
					t.Errorf("%s: %d verdicts != uncached %d", tag, len(got.rec.bounds), len(want.rec.bounds))
				}
				for id, wb := range want.rec.bounds {
					if gb, ok := got.rec.bounds[id]; !ok || gb != wb {
						t.Errorf("%s: object %d bounds %v != uncached %v", tag, id, gb, wb)
					}
				}
			}
		}
	}
}

// TestParallelMatchesSequential is the determinism property test for the
// intra-query parallel engine: for random datasets across tree variants,
// refinement strategies, k, and alpha, the parallel search at every
// worker count must reproduce the sequential run exactly — same result
// IDs, same Metrics, and bit-identical per-object kNN bounds.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	configs := []struct {
		name     string
		clusters int
		strategy core.RefineStrategy
		// mutated routes half the dataset through the copy-on-write
		// Insert/Delete path instead of the static bulk load, so the
		// determinism property is pinned on write-path snapshots too.
		mutated bool
	}{
		{"iur-maxupper", 0, core.RefineByMaxUpper, false},
		{"iur-entropy", 0, core.RefineByEntropy, false},
		{"ciur-maxupper", 6, core.RefineByMaxUpper, false},
		{"ciur-entropy", 6, core.RefineByEntropy, false},
		{"iur-maxupper-cow", 0, core.RefineByMaxUpper, true},
		{"iur-entropy-cow", 0, core.RefineByEntropy, true},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			objs := genObjects(rng, 200+rng.Intn(150), 40, 6)
			var tree *iurtree.Snapshot
			if cfg.mutated {
				tree = buildTree(t, objs[:len(objs)/2], cfg.clusters, false)
				for _, o := range objs[len(objs)/2:] {
					next, _, err := tree.Insert(o, nil)
					if err != nil {
						t.Fatal(err)
					}
					tree = next
				}
				for i := 0; i < len(objs); i += 9 {
					next, _, ok, err := tree.Delete(objs[i].ID, objs[i].Loc, nil)
					if err != nil || !ok {
						t.Fatalf("Delete(%d): ok=%v err=%v", objs[i].ID, ok, err)
					}
					tree = next
				}
			} else {
				tree = buildTree(t, objs, cfg.clusters, false)
			}
			for trial := 0; trial < 4; trial++ {
				k := []int{1, 3, 10}[rng.Intn(3)]
				alpha := []float64{0, 0.5, 1}[rng.Intn(3)]
				q := genQuery(rng, 40, 6)

				run := func(workers int) (*core.Outcome, *boundRecorder) {
					rec := newBoundRecorder()
					var tracker storage.Tracker
					out, err := core.RSTkNN(tree, q, core.Options{
						K: k, Alpha: alpha, Strategy: cfg.strategy,
						Workers: workers, Tracker: &tracker,
						BoundTrace: rec.trace,
					})
					if err != nil {
						t.Fatalf("workers=%d k=%d alpha=%g: %v", workers, k, alpha, err)
					}
					return out, rec
				}

				seq, seqRec := run(1)
				for _, workers := range []int{2, 4, 8} {
					par, parRec := run(workers)
					tag := fmt.Sprintf("trial %d k=%d alpha=%g workers=%d", trial, k, alpha, workers)
					if !idsEqual(par.Results, seq.Results) {
						t.Errorf("%s: results %v != sequential %v", tag, par.Results, seq.Results)
					}
					if par.Metrics != seq.Metrics {
						t.Errorf("%s: metrics %+v != sequential %+v", tag, par.Metrics, seq.Metrics)
					}
					if len(parRec.bounds) != len(seqRec.bounds) {
						t.Errorf("%s: %d object verdicts != sequential %d",
							tag, len(parRec.bounds), len(seqRec.bounds))
					}
					for id, want := range seqRec.bounds {
						got, ok := parRec.bounds[id]
						if !ok {
							t.Errorf("%s: object %d missing from parallel verdicts", tag, id)
							continue
						}
						if got != want {
							t.Errorf("%s: object %d kNN bounds %v != sequential %v", tag, id, got, want)
						}
					}
				}
			}
		})
	}
}
