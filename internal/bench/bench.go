// Package bench is the experiment harness that regenerates every table
// and figure of the RSTkNN paper's evaluation (as reconstructed in
// DESIGN.md §4). Each experiment builds the datasets and indexes it
// needs, runs the competing methods over a shared query workload, and
// prints a paper-style table of mean per-query cost; the same code backs
// the testing.B benchmarks in the repository root and the rstknn-bench
// CLI.
//
// Methods compared, using the paper's naming:
//
//	B       exhaustive baseline (per-query naive scan)
//	P       precomputation baseline (thresholds materialized offline)
//	IUR     branch-and-bound over the plain IUR-tree
//	CIUR    branch-and-bound over the cluster-enhanced IUR-tree
//	O-CIUR  CIUR with outlier detection and extraction
//	E-CIUR  CIUR with text-entropy refinement ordering
package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"rstknn/internal/cluster"
	"rstknn/internal/core"
	"rstknn/internal/dataset"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// Config scales and seeds a harness run.
type Config struct {
	// Out receives the rendered tables.
	Out io.Writer
	// Scale multiplies the default dataset sizes; 1.0 is the full run,
	// tests use small fractions.
	Scale float64
	// Queries is the number of query objects averaged per data point.
	Queries int
	// Seed drives dataset generation and query sampling.
	Seed int64
	// Profile selects the dataset shape (default GN).
	Profile dataset.Profile
	// Parallelism is the worker count for the parallel-throughput
	// experiment (F13); <= 0 defaults to runtime.GOMAXPROCS(0).
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Queries <= 0 {
		c.Queries = 20
	}
	return c
}

// scaled returns n scaled by the config, with a floor to keep experiments
// meaningful at test scale.
func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 50 {
		v = 50
	}
	return v
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) error
}

// Experiments lists every experiment in paper order.
var Experiments = []Experiment{
	{"T1", "Dataset statistics", RunT1DatasetStats},
	{"T2", "Index construction cost and size", RunT2IndexConstruction},
	{"F1", "Query time vs k", RunF1VaryK},
	{"F2", "Page accesses vs k", RunF2PageAccess},
	{"F3", "Query time vs alpha", RunF3VaryAlpha},
	{"F4", "Scalability vs |D|", RunF4Scalability},
	{"F5", "Pruning effectiveness vs k", RunF5Pruning},
	{"F6", "Effect of CIUR cluster count", RunF6Clusters},
	{"F7", "Effect of document length", RunF7DocLength},
	{"F8", "Baselines vs branch-and-bound", RunF8Baselines},
	{"F9", "Text similarity measures", RunF9Measures},
}

// ByID returns the experiment with the given ID, or nil.
func ByID(id string) *Experiment {
	for i := range Experiments {
		if strings.EqualFold(Experiments[i].ID, id) {
			return &Experiments[i]
		}
	}
	return nil
}

// RunAll executes every experiment in order.
func RunAll(cfg Config) error {
	for _, e := range Experiments {
		if err := e.Run(cfg); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// ------------------------------------------------------------------
// Method definitions

// method is one competitor: how to build its index and query it.
type method struct {
	name     string
	clusters int     // 0 = plain IUR
	outlier  float64 // O-CIUR outlier threshold
	strategy core.RefineStrategy
}

var treeMethods = []method{
	{name: "IUR"},
	{name: "CIUR", clusters: 16},
	{name: "O-CIUR", clusters: 16, outlier: 0.15},
	{name: "E-CIUR", clusters: 16, strategy: core.RefineByEntropy},
}

// builtMethod pairs a method with its sealed tree.
type builtMethod struct {
	method
	tree  *iurtree.Snapshot
	build time.Duration
}

// buildMethods seals one tree per method over the collection.
func buildMethods(objs []iurtree.Object, methods []method, seed int64) ([]builtMethod, error) {
	out := make([]builtMethod, 0, len(methods))
	docs := make([]vector.Vector, len(objs))
	for i := range objs {
		docs[i] = objs[i].Doc
	}
	for _, m := range methods {
		start := time.Now()
		cfg := iurtree.Config{Store: storage.NewStore()}
		if m.clusters > 0 {
			cfg.Clustering = cluster.Run(docs, cluster.Config{
				K: m.clusters, Seed: seed, OutlierThreshold: m.outlier,
			})
		}
		tree, err := iurtree.Build(objs, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, builtMethod{method: m, tree: tree, build: time.Since(start)})
	}
	return out, nil
}

// measurement aggregates per-query costs.
type measurement struct {
	Time       time.Duration // mean per query
	Pages      float64       // mean page accesses per query
	Nodes      float64       // mean nodes read
	Sims       float64       // mean exact similarity computations
	Bounds     float64       // mean bound evaluations
	GroupFrac  float64       // fraction of objects decided at node level
	Results    float64       // mean result-set size
	Refines    float64       // mean contributor refinements
	Candidates float64       // mean object-level candidates
}

// runQueries measures a built method over the query workload. Each query
// runs with its own storage.Tracker, so the per-query I/O numbers do not
// depend on resetting (or racing on) the store's global counters.
func (bm *builtMethod) runQueries(queries []dataset.QueryObject, k int, alpha float64, sim vector.TextSim) (measurement, error) {
	var agg measurement
	var total time.Duration
	n := bm.tree.Len()
	for _, q := range queries {
		var tracker storage.Tracker
		start := time.Now()
		// Workers is pinned to 1: these experiments reproduce the paper's
		// sequential per-query costs.
		out, err := core.RSTkNN(bm.tree, core.Query{Loc: q.Loc, Doc: q.Doc}, core.Options{
			K: k, Alpha: alpha, Sim: sim, Strategy: bm.strategy,
			Workers: 1, Tracker: &tracker,
		})
		if err != nil {
			return agg, err
		}
		total += time.Since(start)
		agg.Pages += float64(tracker.PagesRead())
		agg.Nodes += float64(out.Metrics.NodesRead)
		agg.Sims += float64(out.Metrics.ExactSims)
		agg.Bounds += float64(out.Metrics.BoundEvals)
		agg.Results += float64(len(out.Results))
		agg.Refines += float64(out.Metrics.Refinements)
		agg.Candidates += float64(out.Metrics.Candidates)
		if n > 0 {
			agg.GroupFrac += float64(out.Metrics.GroupPruned+out.Metrics.GroupReported) / float64(n)
		}
	}
	qn := float64(len(queries))
	agg.Time = time.Duration(float64(total) / qn)
	agg.Pages /= qn
	agg.Nodes /= qn
	agg.Sims /= qn
	agg.Bounds /= qn
	agg.Results /= qn
	agg.Refines /= qn
	agg.Candidates /= qn
	agg.GroupFrac /= qn
	return agg, nil
}

// ------------------------------------------------------------------
// Table rendering

type table struct {
	title   string
	headers []string
	rows    [][]string
}

func newTable(title string, headers ...string) *table {
	return &table{title: title, headers: headers}
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.headers, "\t"))
	fmt.Fprintln(tw, strings.Repeat("-", 8))
	for _, r := range t.rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000)
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// ------------------------------------------------------------------
// Shared fixtures

// fixture builds the default dataset and query workload for an
// experiment, applying the scale.
func fixture(cfg Config, n int) (*dataset.Collection, []dataset.QueryObject) {
	col := dataset.Generate(cfg.Profile, dataset.Params{N: cfg.scaled(n), Seed: cfg.Seed})
	queries := col.Queries(cfg.Queries, cfg.Seed+1)
	return col, queries
}

const (
	defaultN     = 20000
	defaultK     = 10
	defaultAlpha = 0.5
)
