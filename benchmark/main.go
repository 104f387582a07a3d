// Command benchmark is the repository's load-generating benchmark. It
// drives the public rstknn API with one of four workloads and prints
// every end-to-end metric by name with its unit; --trace 1 instead
// prints the per-layer metrics, taken from a replica of the engine's
// stack that records a span at each layer boundary. Every run checks
// the engine's answers and exits non-zero when a check fails.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash benchmark/run.sh --workload mem-single --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh --seed 7               # all four workloads
//	bash benchmark/run.sh --compare A.jsonl B.jsonl
//
// See README.md for the workloads, the metrics and how to compare sets
// of runs.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strings"
)

// workdir, under the directory the benchmark runs from, receives saved
// indexes and trace files; run.sh puts the Go build cache there too.
const workdir = ".bench_build"

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as appended to an --out file and read by --compare.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Machine  machine `json:"machine"`
	Sizes    sizes   `json:"sizes"`
	result
	Errors []string `json:"errors,omitempty"`
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run; empty runs all four, each in its own process")
	seed := fs.Int64("seed", 7, "seed of the query and update streams")
	seconds := fs.Float64("seconds", 20, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	out := fs.String("out", "", "append the run's record to this file (JSON lines, read by --compare)")
	compare := fs.Bool("compare", false, "compare two record files given as arguments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("--compare needs two record files")
		}
		return compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	if *name == "" {
		return runAll(stdout, args)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	r, err := runWorkload(config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1, workdir: workdir})
	if err != nil {
		return err
	}
	rec := r.record()
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			return err
		}
	}
	if err := printRecord(stdout, rec); err != nil {
		return err
	}
	if !rec.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, rec.Failed, rec.Attempted)
	}
	return nil
}

func (r *run) record() record {
	metrics := r.endToEnd()
	if r.cfg.trace {
		metrics = r.perLayer()
	}
	rec := record{
		Workload: r.cfg.workload.name,
		Seed:     r.cfg.seed,
		Seconds:  r.cfg.seconds,
		Trace:    r.cfg.trace,
		Machine:  thisMachine(),
		Sizes:    r.sizes(),
		result:   result{Metrics: map[string]metricValue{}},
	}
	all := []*phase{&r.checks, &r.main}
	if r.trace != nil {
		all = append(all, &r.trace.phase)
		if r.writes != &r.main {
			all = append(all, r.writes, r.trace.writes)
		}
	}
	for _, p := range all {
		rec.Attempted += p.attempted
		rec.Failed += p.failed
		rec.Errors = append(rec.Errors, p.errs...)
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	for _, m := range metrics {
		rec.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	return rec
}

// printRecord writes the human-readable summary, then the result as the
// last line.
func printRecord(w io.Writer, rec record) error {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	m := rec.Machine
	fmt.Fprintf(w, "machine  nproc %d  GOMAXPROCS %d  %s %s/%s\n", m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.OS, m.Arch)
	s := rec.Sizes
	fmt.Fprintf(w, "sizes    %d objects, %d index pages, %d load goroutines, %d queries in %d calls, %d updates; pool %d pages (%.2f of index), bound cache %d nodes (%.1fx index); p%g is the highest percentile with 10 calls beyond it\n",
		s.Objects, s.IndexPages, s.LoadGoroutines, s.QueriesAnswered, s.Calls, s.Updates, s.PoolPages, s.PoolShare, s.BoundCacheNodes, s.BoundCacheShare, s.HighestPercentile)
	for _, name := range sortedKeys(rec.Metrics) {
		v := rec.Metrics[name]
		fmt.Fprintf(w, "  %-38s %14.4f %s\n", name, v.Value, v.Unit)
	}
	for _, e := range rec.Errors {
		fmt.Fprintln(w, "  FAILED:", e)
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a child process of its own, so each
// runtime.peak_rss_mb belongs to one workload, and prints one combined result
// with metric names prefixed by the workload.
func runAll(stdout io.Writer, args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		var buf bytes.Buffer
		cmd := exec.Command(self, append(slices.Clip(args), "--workload", w.name)...)
		cmd.Stdout = io.MultiWriter(&buf, stdout)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		var res result
		if err := json.Unmarshal(lastLine(buf.Bytes()), &res); err != nil {
			return fmt.Errorf("%s: no result (%v)", w.name, runErr)
		}
		all.Correct = all.Correct && res.Correct && runErr == nil
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for n, v := range res.Metrics {
			all.Metrics[w.name+"."+n] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !all.Correct {
		return errors.New("a workload failed its checks")
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// readRecords reads a JSON-lines record file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}
