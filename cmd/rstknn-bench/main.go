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
// The benchmark that gates speed claims, with repeated samples and
// per-layer costs, lives in the separate benchmark/ module
// (bash benchmark/run.sh; see BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
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
		exps     = fs.String("exp", "all", "comma-separated experiment IDs (T1,T2,F1..F13; see -list) or 'all'")
		scale    = fs.Float64("scale", 1.0, "dataset scale factor (1.0 = paper-shaped full run)")
		queries  = fs.Int("queries", 20, "queries averaged per data point")
		seed     = fs.Int64("seed", 1, "dataset and query seed")
		profile  = fs.String("profile", "gn", "dataset profile: gn|sb|uniform|topical")
		parallel = fs.Int("parallel", 0, "worker count for the parallel-throughput experiment (F13); 0 = GOMAXPROCS")
		list     = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
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
