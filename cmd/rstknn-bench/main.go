// Command rstknn-bench runs the experiment suite that regenerates the
// tables and figures of the RSTkNN paper's evaluation (see DESIGN.md §4
// for the per-experiment index and EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	rstknn-bench                 # run every experiment at full scale
//	rstknn-bench -exp F1,F2      # run selected experiments
//	rstknn-bench -scale 0.1      # 10% of the paper-scale dataset sizes
//	rstknn-bench -queries 50     # average over more queries per point
//	rstknn-bench -profile sb     # SB-shaped collection
//
// The -json mode runs the intra-query scaling benchmark instead of the
// experiment tables and writes a machine-readable BENCH_<label>.json
// (sequential vs parallel ns/op, allocs/op, node reads per worker count):
//
//	rstknn-bench -json baseline -seed 7              # BENCH_baseline.json
//	rstknn-bench -json pr42 -workers 1,4 -benchiters 5
//
// The -mutate mode benchmarks the copy-on-write update path instead
// (insert/delete ns/op, blob writes and pages written per op, nodes
// retired per op, and the live-vs-total footprint after reclamation):
//
//	rstknn-bench -mutate baseline -seed 7            # BENCH_baseline.json
//	rstknn-bench -mutate pr42 -scale 0.1 -churn 500
//
// The -batch mode runs the shared-traversal batch benchmark (DESIGN.md
// §11): the same query workload answered independently and through
// core.MultiRSTkNN at several batch sizes, recording physical nodes read
// per query and the shared-hit amortization:
//
//	rstknn-bench -batch batch -seed 7                # BENCH_batch.json
//	rstknn-bench -batch pr42 -batchsizes 1,16
//
// The -compare mode diffs two previously written benchmarks (scaling or
// batch records — detected from the file's mode field) and exits
// non-zero when any cost metric regressed by more than -threshold
// percent (default 10; flags must precede the positional NEW.json):
//
//	rstknn-bench -compare BENCH_baseline.json BENCH_pr42.json
//	rstknn-bench -compare BENCH_batch.json -threshold 25 BENCH_pr42.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"rstknn/internal/bench"
	"rstknn/internal/dataset"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rstknn-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rstknn-bench", flag.ContinueOnError)
	var (
		exps     = fs.String("exp", "all", "comma-separated experiment IDs (T1,T2,F1..F9) or 'all'")
		scale    = fs.Float64("scale", 1.0, "dataset scale factor (1.0 = paper-shaped full run)")
		queries  = fs.Int("queries", 20, "queries averaged per data point")
		seed     = fs.Int64("seed", 1, "dataset and query seed")
		profile  = fs.String("profile", "gn", "dataset profile: gn|sb|uniform")
		parallel = fs.Int("parallel", 0, "worker count for the parallel-throughput experiment (F13); 0 = GOMAXPROCS")
		list     = fs.Bool("list", false, "list experiments and exit")

		jsonLabel  = fs.String("json", "", "write the intra-query scaling benchmark to BENCH_<label>.json instead of running experiments")
		jsonDir    = fs.String("benchdir", ".", "directory the BENCH_<label>.json is written to")
		workers    = fs.String("workers", "1,2,4,8", "comma-separated worker counts for -json (1 = sequential)")
		benchiters = fs.Int("benchiters", 3, "timed passes over the workload per worker count in -json mode")

		mutateLabel = fs.String("mutate", "", "write the copy-on-write mutation benchmark to BENCH_<label>.json instead of running experiments")
		mutateOps   = fs.Int("churn", 0, "steady-state delete+insert rounds in -mutate mode (0 = dataset size)")

		batchLabel = fs.String("batch", "", "write the shared-traversal batch benchmark to BENCH_<label>.json instead of running experiments")
		batchSizes = fs.String("batchsizes", "1,4,16,64", "comma-separated batch sizes for -batch mode")

		comparePath = fs.String("compare", "", "compare two scaling benchmarks: -compare OLD.json NEW.json prints per-row deltas and exits non-zero on regressions past -threshold")
		threshold   = fs.Float64("threshold", 10, "regression threshold in percent for -compare")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *comparePath != "" {
		if fs.NArg() != 1 {
			return fmt.Errorf("-compare needs exactly two files: -compare OLD.json NEW.json")
		}
		return runCompare(out, *comparePath, fs.Arg(0), *threshold)
	}
	if *list {
		for _, e := range bench.Experiments {
			fmt.Fprintf(out, "%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	p, err := dataset.ProfileByName(*profile)
	if err != nil {
		return err
	}
	cfg := bench.Config{
		Out:         out,
		Scale:       *scale,
		Queries:     *queries,
		Seed:        *seed,
		Profile:     p,
		Parallelism: *parallel,
	}
	if *jsonLabel != "" {
		return runJSON(cfg, out, *jsonLabel, *jsonDir, *workers, *benchiters)
	}
	if *mutateLabel != "" {
		return runMutate(cfg, out, *mutateLabel, *jsonDir, *mutateOps)
	}
	if *batchLabel != "" {
		return runBatch(cfg, out, *batchLabel, *jsonDir, *batchSizes, *benchiters)
	}
	fmt.Fprintf(out, "rstknn-bench: scale=%g queries=%d seed=%d profile=%s\n",
		*scale, *queries, *seed, p)
	start := time.Now()
	if strings.EqualFold(*exps, "all") {
		if err := bench.RunAll(cfg); err != nil {
			return err
		}
	} else {
		for _, id := range strings.Split(*exps, ",") {
			e := bench.ByID(strings.TrimSpace(id))
			if e == nil {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			if err := e.Run(cfg); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
		}
	}
	fmt.Fprintf(out, "\ntotal: %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runJSON executes the intra-query scaling benchmark and writes
// BENCH_<label>.json, echoing a human-readable summary to out.
func runJSON(cfg bench.Config, out io.Writer, label, dir, workerList string, iters int) error {
	var counts []int
	for _, f := range strings.Split(workerList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return fmt.Errorf("invalid -workers element %q", f)
		}
		counts = append(counts, n)
	}
	fmt.Fprintf(out, "rstknn-bench: json label=%s scale=%g queries=%d seed=%d workers=%v iters=%d\n",
		label, cfg.Scale, cfg.Queries, cfg.Seed, counts, iters)
	b, err := bench.RunBaseline(cfg, label, counts, iters)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+label+".json")
	if err := b.WriteFile(path); err != nil {
		return err
	}
	for _, r := range b.Rows {
		fmt.Fprintf(out, "workers=%d  %12d ns/op  %8d allocs/op  %10.1f nodes/query  speedup %.2fx\n",
			r.Workers, r.NsPerOp, r.AllocsPerOp, r.NodesRead, r.Speedup)
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}

// runBatch executes the shared-traversal batch benchmark and writes
// BENCH_<label>.json, echoing a human-readable summary to out.
func runBatch(cfg bench.Config, out io.Writer, label, dir, sizeList string, iters int) error {
	var sizes []int
	for _, f := range strings.Split(sizeList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return fmt.Errorf("invalid -batchsizes element %q", f)
		}
		sizes = append(sizes, n)
	}
	fmt.Fprintf(out, "rstknn-bench: batch label=%s scale=%g queries=%d seed=%d sizes=%v iters=%d\n",
		label, cfg.Scale, cfg.Queries, cfg.Seed, sizes, iters)
	b, err := bench.RunBatchBench(cfg, label, sizes, iters)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+label+".json")
	if err := b.WriteFile(path); err != nil {
		return err
	}
	for _, r := range b.Rows {
		mode := "independent"
		if r.Shared {
			mode = "shared"
		}
		fmt.Fprintf(out, "batch=%-3d %-11s %10d ns/query  %8.1f nodes/query  %8.1f shared-hits/query  %.2fx fewer reads\n",
			r.BatchSize, mode, r.NsPerQuery, r.NodesRead, r.SharedHitsPerQuery, r.Reduction)
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}

// runCompare diffs two BENCH json files (scaling baselines or batch
// records, detected from the mode field) and fails on regressions past
// the threshold (in percent).
func runCompare(out io.Writer, oldPath, newPath string, thresholdPct float64) error {
	mode, err := bench.BenchFileMode(oldPath)
	if err != nil {
		return err
	}
	newMode, err := bench.BenchFileMode(newPath)
	if err != nil {
		return err
	}
	if mode != newMode {
		return fmt.Errorf("cannot compare a %q record with a %q record", modeName(mode), modeName(newMode))
	}
	var cmp *bench.Comparison
	if mode == "batch" {
		oldB, err := bench.ReadBatchBenchFile(oldPath)
		if err != nil {
			return err
		}
		newB, err := bench.ReadBatchBenchFile(newPath)
		if err != nil {
			return err
		}
		cmp, err = bench.CompareBatch(oldB, newB, thresholdPct)
		if err != nil {
			return err
		}
	} else {
		oldB, err := bench.ReadBaselineFile(oldPath)
		if err != nil {
			return err
		}
		newB, err := bench.ReadBaselineFile(newPath)
		if err != nil {
			return err
		}
		cmp, err = bench.Compare(oldB, newB, thresholdPct)
		if err != nil {
			return err
		}
	}
	cmp.Render(out)
	if len(cmp.Regressions) > 0 {
		return fmt.Errorf("%d metric(s) regressed more than %g%%:\n  %s",
			len(cmp.Regressions), thresholdPct, strings.Join(cmp.Regressions, "\n  "))
	}
	fmt.Fprintf(out, "no regressions past %g%%\n", thresholdPct)
	return nil
}

// modeName renders a BENCH file's mode field for error messages.
func modeName(mode string) string {
	if mode == "" {
		return "scaling"
	}
	return mode
}

// runMutate executes the copy-on-write mutation benchmark and writes
// BENCH_<label>.json, echoing a human-readable summary to out.
func runMutate(cfg bench.Config, out io.Writer, label, dir string, churn int) error {
	fmt.Fprintf(out, "rstknn-bench: mutate label=%s scale=%g seed=%d churn=%d\n",
		label, cfg.Scale, cfg.Seed, churn)
	m, err := bench.RunMutate(cfg, label, churn)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+label+".json")
	if err := m.WriteFile(path); err != nil {
		return err
	}
	for _, r := range m.Rows {
		fmt.Fprintf(out, "%-8s %6d ops  %10d ns/op  %6.2f writes/op  %6.2f pages/op  %6.2f retired/op\n",
			r.Op, r.Ops, r.NsPerOp, r.WritesPerOp, r.PagesPerOp, r.RetiredPerOp)
	}
	fmt.Fprintf(out, "storage: %d bytes total, %d live, %d nodes freed, %d pending\n",
		m.Storage.TotalBytes, m.Storage.LiveBytes, m.Storage.Freed, m.Storage.Pending)
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}
