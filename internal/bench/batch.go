package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"rstknn/internal/core"
	"rstknn/internal/dataset"
	"rstknn/internal/storage"
)

// The shared-traversal batch benchmark: the evidence record behind
// DESIGN.md §11. For each batch size it answers the same pinned query
// workload twice — independently (one core.RSTkNN call per query) and
// shared (one core.MultiRSTkNN traversal per batch) — and records the physical nodes read per query.
// `rstknn-bench -batch <label>` writes BENCH_<label>.json;
// `make bench-batch` regenerates the checked-in BENCH_batch.json with a
// pinned seed. Wall-clock columns are machine-dependent; nodes-read,
// shared-hits, and pages per query are deterministic for a given seed
// and comparable across machines.

// batchModeTag marks a BENCH json as a batch record (the scaling
// baselines written by RunBaseline have no mode field).
const batchModeTag = "batch"

// BatchBench is the serialized batch-amortization record.
type BatchBench struct {
	Label    string           `json:"label"`
	Schema   int              `json:"schema"`
	Mode     string           `json:"mode"`
	Machine  BaselineMachine  `json:"machine"`
	Workload BaselineWorkload `json:"workload"`
	// Rows pair, per batch size, the independent measurement with the
	// shared-traversal one.
	Rows []BatchBenchRow `json:"rows"`
}

// BatchBenchRow is the measurement of one (batch size, execution mode)
// cell. NodesRead counts PHYSICAL node fetches per query: in independent
// mode every logical read is physical, in shared mode each distinct node
// is fetched once per batch — the ratio of the two is Reduction.
type BatchBenchRow struct {
	BatchSize          int     `json:"batch_size"`
	Shared             bool    `json:"shared"`
	NsPerQuery         int64   `json:"ns_per_query"`
	NodesRead          float64 `json:"nodes_read_per_query"`
	SharedHitsPerQuery float64 `json:"shared_hits_per_query"`
	PagesPerQuery      float64 `json:"pages_per_query"`
	Results            float64 `json:"results_per_query"`
	// Reduction is the independent row's NodesRead over this row's, at
	// the same batch size (1 on independent rows by construction).
	Reduction float64 `json:"reduction_vs_independent"`
}

// batchPass is one measured execution of the whole workload in one mode.
type batchPass struct {
	nodes, sharedHits, pages, results float64
	sums                              []int64
}

// RunBatchBench measures the batch workload at each batch size,
// independent and shared, with iters timed passes per cell after an
// untimed warm-up pass that also verifies shared results are identical
// to independent ones.
func RunBatchBench(cfg Config, label string, sizes []int, iters int) (*BatchBench, error) {
	cfg = cfg.withDefaults()
	if len(sizes) == 0 {
		sizes = []int{1, 4, 16, 64}
	}
	if iters <= 0 {
		iters = 1
	}
	col, queries := fixture(cfg, defaultN/2)
	methods, err := buildMethods(col.Objects, []method{treeMethods[0]}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	bm := &methods[0]

	b := &BatchBench{
		Label:  label,
		Schema: 1,
		Mode:   batchModeTag,
		Machine: BaselineMachine{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Workload: BaselineWorkload{
			Profile: fmt.Sprint(cfg.Profile),
			Objects: len(col.Objects),
			Queries: len(queries),
			K:       defaultK,
			Alpha:   defaultAlpha,
			Seed:    cfg.Seed,
			Iters:   iters,
		},
	}

	// The independent reference pass also yields the per-query result
	// checksums every shared warm-up is verified against.
	ref, err := runIndependentPass(bm, queries)
	if err != nil {
		return nil, err
	}

	for _, size := range sizes {
		if size < 1 {
			return nil, fmt.Errorf("bench: batch size %d must be positive", size)
		}
		indepRow := BatchBenchRow{
			BatchSize: size,
			NodesRead: ref.nodes, PagesPerQuery: ref.pages, Results: ref.results,
			Reduction: 1,
		}
		ns, err := timeBatchPasses(len(queries), iters, func() error {
			_, err := runIndependentPass(bm, queries)
			return err
		})
		if err != nil {
			return nil, err
		}
		indepRow.NsPerQuery = ns
		b.Rows = append(b.Rows, indepRow)

		sp, err := runSharedPass(bm, queries, size)
		if err != nil {
			return nil, err
		}
		for i := range sp.sums {
			if sp.sums[i] != ref.sums[i] {
				return nil, fmt.Errorf("bench: query %d result differs between shared (batch=%d) and independent execution", i, size)
			}
		}
		sharedRow := BatchBenchRow{
			BatchSize: size, Shared: true,
			NodesRead: sp.nodes, SharedHitsPerQuery: sp.sharedHits,
			PagesPerQuery: sp.pages, Results: sp.results,
		}
		if sp.nodes > 0 {
			sharedRow.Reduction = ref.nodes / sp.nodes
		}
		ns, err = timeBatchPasses(len(queries), iters, func() error {
			_, err := runSharedPass(bm, queries, size)
			return err
		})
		if err != nil {
			return nil, err
		}
		sharedRow.NsPerQuery = ns
		b.Rows = append(b.Rows, sharedRow)
	}
	return b, nil
}

// runIndependentPass answers every query standalone (Workers:1, the
// paper's sequential cost model) and averages the per-query counters.
func runIndependentPass(bm *builtMethod, queries []dataset.QueryObject) (batchPass, error) {
	var p batchPass
	p.sums = make([]int64, len(queries))
	for i, q := range queries {
		var tracker storage.Tracker
		out, err := core.RSTkNN(bm.tree, core.Query{Loc: q.Loc, Doc: q.Doc}, core.Options{
			K: defaultK, Alpha: defaultAlpha, Strategy: bm.strategy,
			Workers: 1, Tracker: &tracker,
		})
		if err != nil {
			return p, err
		}
		p.sums[i] = resultChecksum(out.Results)
		p.nodes += float64(out.Metrics.NodesRead)
		p.pages += float64(tracker.PagesRead())
		p.results += float64(len(out.Results))
	}
	qn := float64(len(queries))
	p.nodes /= qn
	p.pages /= qn
	p.results /= qn
	return p, nil
}

// runSharedPass partitions the workload into consecutive batches of the
// given size (the last batch may be smaller) and answers each with one
// shared traversal.
func runSharedPass(bm *builtMethod, queries []dataset.QueryObject, size int) (batchPass, error) {
	var p batchPass
	p.sums = make([]int64, 0, len(queries))
	for lo := 0; lo < len(queries); lo += size {
		hi := lo + size
		if hi > len(queries) {
			hi = len(queries)
		}
		chunk := queries[lo:hi]
		items := make([]core.BatchItem, len(chunk))
		for i, q := range chunk {
			items[i] = core.BatchItem{Query: core.Query{Loc: q.Loc, Doc: q.Doc}, K: defaultK}
		}
		var tracker storage.Tracker
		mo, err := core.MultiRSTkNN(bm.tree, items, core.Options{
			Alpha: defaultAlpha, Strategy: bm.strategy,
			Workers: 1, Tracker: &tracker,
		})
		if err != nil {
			return p, err
		}
		for _, o := range mo.Outcomes {
			p.sums = append(p.sums, resultChecksum(o.Results))
			p.results += float64(len(o.Results))
		}
		p.nodes += float64(mo.Batch.NodesRead)
		p.sharedHits += float64(mo.Batch.SharedHits)
		p.pages += float64(tracker.PagesRead())
	}
	qn := float64(len(queries))
	p.nodes /= qn
	p.sharedHits /= qn
	p.pages /= qn
	p.results /= qn
	return p, nil
}

// timeBatchPasses runs iters timed passes of the workload and returns
// mean wall-clock per query.
func timeBatchPasses(queriesPerPass, iters int, pass func() error) (int64, error) {
	start := time.Now()
	for it := 0; it < iters; it++ {
		if err := pass(); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Nanoseconds() / int64(iters*queriesPerPass), nil
}

// resultChecksum folds a result-ID list into one comparable word.
func resultChecksum(ids []int32) int64 {
	var sum int64
	for _, id := range ids {
		sum = sum*1000003 + int64(id)
	}
	return sum
}

// WriteFile serializes the record to path as indented JSON.
func (b *BatchBench) WriteFile(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// BenchFileMode returns the "mode" field of a BENCH json file: "" for
// the scaling baselines RunBaseline writes, "batch" for RunBatchBench
// records — so -compare can dispatch without a schema bump.
func BenchFileMode(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var head struct {
		Mode string `json:"mode"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return head.Mode, nil
}

// ReadBatchBenchFile loads a BENCH_<label>.json written by
// BatchBench.WriteFile.
func ReadBatchBenchFile(path string) (*BatchBench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b BatchBench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.Schema != 1 {
		return nil, fmt.Errorf("%s: unsupported schema %d", path, b.Schema)
	}
	if b.Mode != batchModeTag {
		return nil, fmt.Errorf("%s: not a batch benchmark (mode %q)", path, b.Mode)
	}
	return &b, nil
}

// CompareBatch diffs two batch records row by row, the batch-mode
// counterpart of Compare: workloads must match in everything but Iters,
// rows are matched on (batch size, shared), and a metric regresses when
// new exceeds old by more than thresholdPct percent.
func CompareBatch(oldB, newB *BatchBench, thresholdPct float64) (*Comparison, error) {
	ow, nw := oldB.Workload, newB.Workload
	ow.Iters, nw.Iters = 0, 0
	if ow != nw {
		return nil, fmt.Errorf("workloads differ: old %+v vs new %+v", ow, nw)
	}
	type key struct {
		size   int
		shared bool
	}
	oldRows := make(map[key]BatchBenchRow, len(oldB.Rows))
	for _, r := range oldB.Rows {
		oldRows[key{r.BatchSize, r.Shared}] = r
	}
	cmp := &Comparison{OldBatch: oldB, NewBatch: newB}
	for _, nr := range newB.Rows {
		or, ok := oldRows[key{nr.BatchSize, nr.Shared}]
		if !ok {
			continue
		}
		mode := "independent"
		if nr.Shared {
			mode = "shared"
		}
		label := fmt.Sprintf("batch=%d %s", nr.BatchSize, mode)
		row := CompareRow{Label: label}
		for _, m := range []CompareMetric{
			{Name: "ns/query", Old: float64(or.NsPerQuery), New: float64(nr.NsPerQuery)},
			{Name: "nodes-read", Old: or.NodesRead, New: nr.NodesRead},
			{Name: "pages", Old: or.PagesPerQuery, New: nr.PagesPerQuery},
		} {
			if m.Old != 0 {
				m.DeltaPct = (m.New - m.Old) / m.Old * 100
			} else if m.New != 0 {
				m.DeltaPct = 100
			}
			m.Regressed = m.DeltaPct > thresholdPct
			if m.Regressed {
				cmp.Regressions = append(cmp.Regressions,
					fmt.Sprintf("%s %s %+.1f%% (%.0f -> %.0f)",
						label, m.Name, m.DeltaPct, m.Old, m.New))
			}
			row.Metrics = append(row.Metrics, m)
		}
		cmp.Rows = append(cmp.Rows, row)
	}
	if len(cmp.Rows) == 0 {
		return nil, fmt.Errorf("no common (batch size, mode) rows between %q and %q", oldB.Label, newB.Label)
	}
	return cmp, nil
}
