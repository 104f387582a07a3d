package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rstknn/internal/core"
	"rstknn/internal/dataset"
	"rstknn/internal/storage"
)

// F13 measures concurrent query throughput: the same workload run
// sequentially and then over a worker pool sharing one tree, exercising
// the per-query execution context (storage.Tracker) end to end. Beyond
// the speedup number, the experiment is a correctness check: the
// parallel run must produce identical result sets and identical
// per-query I/O attribution, or it fails.

func init() {
	Experiments = append(Experiments,
		Experiment{"F13", "Parallel query throughput (shared tree, per-query trackers)", RunF13Parallel},
	)
}

// queryOutcome is what one query contributes to the cross-run comparison.
type queryOutcome struct {
	checksum int64 // order-sensitive hash of the result IDs
	pages    int64 // tracker-attributed page accesses
	hits     int64 // tracker-attributed cache hits
}

// runWorkload executes the queries with `workers` goroutines (1 =
// sequential) against the shared tree and returns per-query outcomes in
// workload order plus the wall time.
func runWorkload(bm *builtMethod, queries []dataset.QueryObject, k int, alpha float64, workers int) ([]queryOutcome, time.Duration, error) {
	outcomes := make([]queryOutcome, len(queries))
	errs := make([]error, len(queries))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				q := queries[i]
				var tracker storage.Tracker
				// Workers: 1 — F13 isolates *inter*-query scaling.
				out, err := core.RSTkNN(bm.tree, core.Query{Loc: q.Loc, Doc: q.Doc}, core.Options{
					K: k, Alpha: alpha, Strategy: bm.strategy, Workers: 1, Tracker: &tracker,
				})
				if err != nil {
					errs[i] = err
					continue
				}
				var sum int64
				for _, id := range out.Results {
					sum = sum*1000003 + int64(id)
				}
				outcomes[i] = queryOutcome{
					checksum: sum,
					pages:    tracker.PagesRead(),
					hits:     tracker.CacheHits(),
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return outcomes, elapsed, nil
}

// RunF13Parallel compares sequential vs pooled execution of one workload
// over a shared tree. Results and per-query page counts must match the
// sequential run exactly; on a multi-core machine the pooled run should
// also be faster.
func RunF13Parallel(cfg Config) error {
	cfg = cfg.withDefaults()
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	col, queries := fixture(cfg, defaultN/2)
	methods, err := buildMethods(col.Objects, []method{treeMethods[0]}, cfg.Seed)
	if err != nil {
		return err
	}
	bm := &methods[0]

	seq, seqWall, err := runWorkload(bm, queries, defaultK, defaultAlpha, 1)
	if err != nil {
		return err
	}
	par, parWall, err := runWorkload(bm, queries, defaultK, defaultAlpha, workers)
	if err != nil {
		return err
	}
	var seqPages, parPages int64
	for i := range seq {
		if par[i].checksum != seq[i].checksum {
			return fmt.Errorf("F13: query %d result set differs between sequential and parallel runs", i)
		}
		if par[i].pages != seq[i].pages || par[i].hits != seq[i].hits {
			return fmt.Errorf("F13: query %d I/O attribution drifted under concurrency (seq %d+%d, par %d+%d)",
				i, seq[i].pages, seq[i].hits, par[i].pages, par[i].hits)
		}
		seqPages += seq[i].pages
		parPages += par[i].pages
	}

	qps := func(wall time.Duration) float64 {
		if wall <= 0 {
			return 0
		}
		return float64(len(queries)) / wall.Seconds()
	}
	t := newTable(fmt.Sprintf("F13: parallel throughput (|D|=%d, k=%d, %d queries, %d workers)",
		len(col.Objects), defaultK, len(queries), workers),
		"mode", "wall (ms)", "QPS", "speedup", "pages/query")
	t.add("sequential", ms(seqWall), f1(qps(seqWall)), "1.00",
		f1(float64(seqPages)/float64(len(queries))))
	speedup := 0.0
	if parWall > 0 {
		speedup = float64(seqWall) / float64(parWall)
	}
	t.add(fmt.Sprintf("pool x%d", workers), ms(parWall), f1(qps(parWall)),
		f2(speedup), f1(float64(parPages)/float64(len(queries))))
	t.render(cfg.Out)
	return nil
}
