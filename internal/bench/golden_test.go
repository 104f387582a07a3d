package bench

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rstknn/internal/core"
	"rstknn/internal/dataset"
	"rstknn/internal/storage"
)

// goldenCounters is one query's deterministic cost record: the search's
// node reads, its result-set size, and its similarity and refinement
// tallies. Every field is a pure function of the tree, the query and
// the search algorithm, so any change to the traversal or the bound
// arithmetic that is meant to be behaviour-preserving must leave all of
// them untouched.
type goldenCounters struct {
	NodesRead, Results    int
	BoundEvals, ExactSims int64
	Refinements, Rebounds int
}

// goldenPinned holds the per-query counters of the pinned workload
// (BenchmarkPinnedWorkload: GN, scale 0.25, 16 queries, seed 7, k 10,
// alpha 0.5, Workers 1) for the plain IUR-tree and for the clustered
// tree searched with RefineByEntropy (E-CIUR), recorded before contributors
// stopped copying their entries.
//
// Fields: NodesRead, Results, BoundEvals, ExactSims, Refinements,
// Rebounds. Regenerate from the failure log, which prints the current
// counters in this form, only for a change that is meant to alter the
// search's work.
var goldenPinned = map[string][]goldenCounters{
	"IUR": {
		{137, 7, 9465, 9587, 109, 13850},
		{843, 5, 24954, 37155, 761, 32785},
		{104, 4, 6564, 6966, 79, 9497},
		{1586, 20, 21349, 58489, 1504, 27118},
		{5992, 84, 31099, 197411, 5909, 36448},
		{291, 5, 11208, 14476, 224, 14600},
		{6369, 102, 31592, 209006, 6286, 35542},
		{116, 9, 6561, 7246, 100, 9746},
		{63, 2, 4931, 4975, 50, 7535},
		{2117, 31, 22579, 74811, 2034, 28142},
		{107, 4, 6181, 7403, 94, 9839},
		{436, 5, 14188, 19939, 364, 18238},
		{180, 4, 8834, 11189, 156, 13641},
		{100, 4, 7123, 7485, 80, 10880},
		{545, 7, 11247, 21130, 465, 12640},
		{74, 4, 7117, 6878, 52, 10967},
	},
	"E-CIUR": {
		{117, 7, 25035, 8498, 89, 18954},
		{872, 5, 44150, 36789, 790, 41826},
		{75, 4, 20274, 5629, 53, 12930},
		{1412, 20, 38914, 50491, 1330, 33621},
		{5093, 84, 49698, 167400, 5010, 44439},
		{247, 5, 24948, 12131, 195, 18510},
		{5481, 102, 50345, 178061, 5399, 42918},
		{109, 9, 16799, 6895, 93, 11431},
		{55, 2, 17897, 4623, 42, 10236},
		{1800, 31, 40643, 62643, 1717, 35179},
		{76, 4, 17999, 6329, 64, 11457},
		{381, 5, 29536, 16491, 313, 23015},
		{115, 4, 23023, 8851, 92, 17563},
		{94, 4, 22470, 7190, 74, 15961},
		{460, 7, 25824, 16664, 382, 16615},
		{52, 4, 22043, 5971, 30, 15565},
	},
}

// pinnedPasses are the executions of the pinned workload that must all
// reproduce goldenPinned: the sequential search, the intra-query worker
// pool, and the shared traversal (core.MultiRSTkNN) in batches of 16.
// batch 0 answers each query with its own core.RSTkNN call.
var pinnedPasses = []struct {
	name           string
	workers, batch int
}{
	{"workers=1", 1, 0},
	{"workers=4", 4, 0},
	{"batch=16", 1, 16},
}

// TestGoldenCountersPinnedWorkload pins every per-query counter of the
// pinned workload, in exact equality, for every pass in pinnedPasses.
// Each later pass must also return the first pass's results and full
// Metrics query by query, so the engine is deterministic across worker
// counts and between shared and independent execution. The IUR means
// must also reproduce BENCH_baseline.json's Workers=1 row (1191.25
// nodes and 18.5625 results per query).
func TestGoldenCountersPinnedWorkload(t *testing.T) {
	// Workers is clamped to GOMAXPROCS; raise it so the workers=4 pass
	// spawns real goroutines on a machine with fewer CPUs.
	if runtime.GOMAXPROCS(0) < 4 {
		prev := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	cfg := Config{Scale: 0.25, Queries: 16, Seed: 7}.withDefaults()
	col, queries := fixture(cfg, defaultN/2)
	methods, err := buildMethods(col.Objects, []method{treeMethods[0], treeMethods[3]}, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, bm := range methods {
		var ref []*core.Outcome
		for _, pass := range pinnedPasses {
			outs, err := runPinnedPass(&bm, queries, pass.workers, pass.batch)
			if err != nil {
				t.Fatalf("%s %s: %v", bm.name, pass.name, err)
			}
			if ref == nil {
				ref = outs
			}
			for i, out := range outs {
				if !slices.Equal(out.Results, ref[i].Results) || out.Metrics != ref[i].Metrics {
					t.Errorf("%s %s query %d: results %v metrics %+v, %s gave %v %+v",
						bm.name, pass.name, i, out.Results, out.Metrics,
						pinnedPasses[0].name, ref[i].Results, ref[i].Metrics)
				}
			}
			checkGolden(t, bm.name, pass.name, outs)
		}
	}
	var nodes, results int
	for _, c := range goldenPinned["IUR"] {
		nodes += c.NodesRead
		results += c.Results
	}
	n := float64(len(goldenPinned["IUR"]))
	if mn, mr := float64(nodes)/n, float64(results)/n; mn != 1191.25 || mr != 18.5625 { //rstknn:allow floatcmp exact means of integer counters over 16 queries
		t.Errorf("IUR golden means = %v nodes, %v results per query; BENCH_baseline.json Workers=1 has 1191.25, 18.5625", mn, mr)
	}
}

// runPinnedPass answers the workload with the given worker count, one
// core.RSTkNN call per query when batch is 0 and one core.MultiRSTkNN
// traversal per consecutive chunk of batch queries otherwise.
func runPinnedPass(bm *builtMethod, queries []dataset.QueryObject, workers, batch int) ([]*core.Outcome, error) {
	outs := make([]*core.Outcome, 0, len(queries))
	if batch == 0 {
		for _, q := range queries {
			var tracker storage.Tracker
			out, err := core.RSTkNN(bm.tree, core.Query{Loc: q.Loc, Doc: q.Doc}, core.Options{
				K: defaultK, Alpha: defaultAlpha, Strategy: bm.strategy,
				Workers: workers, Tracker: &tracker,
			})
			if err != nil {
				return nil, err
			}
			outs = append(outs, out)
		}
		return outs, nil
	}
	for lo := 0; lo < len(queries); lo += batch {
		chunk := queries[lo:min(lo+batch, len(queries))]
		items := make([]core.BatchItem, len(chunk))
		for i, q := range chunk {
			items[i] = core.BatchItem{Query: core.Query{Loc: q.Loc, Doc: q.Doc}, K: defaultK}
		}
		var tracker storage.Tracker
		mo, err := core.MultiRSTkNN(bm.tree, items, core.Options{
			Alpha: defaultAlpha, Strategy: bm.strategy,
			Workers: workers, Tracker: &tracker,
		})
		if err != nil {
			return nil, err
		}
		outs = append(outs, mo.Outcomes...)
	}
	return outs, nil
}

// checkGolden compares one pass's per-query counters with the method's
// goldenPinned row.
func checkGolden(t *testing.T, method, pass string, outs []*core.Outcome) {
	t.Helper()
	got := make([]goldenCounters, len(outs))
	for i, out := range outs {
		m := out.Metrics
		got[i] = goldenCounters{
			NodesRead: m.NodesRead, Results: len(out.Results),
			BoundEvals: m.BoundEvals, ExactSims: m.ExactSims,
			Refinements: m.Refinements, Rebounds: m.Rebounds,
		}
	}
	label := method + " " + pass
	want := goldenPinned[method]
	if len(want) != len(got) {
		t.Errorf("%s: %d golden queries, workload has %d; current counters:\n%s", label, len(want), len(got), goldenLiteral(got))
		return
	}
	failed := false
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s query %d: counters %+v, golden %+v", label, i, got[i], want[i])
			failed = true
		}
	}
	if failed {
		t.Logf("%s current counters:\n%s", label, goldenLiteral(got))
	}
}

// goldenLiteral renders counters as the Go literal goldenPinned holds.
func goldenLiteral(cs []goldenCounters) string {
	var b strings.Builder
	for _, c := range cs {
		fmt.Fprintf(&b, "\t{%d, %d, %d, %d, %d, %d},\n",
			c.NodesRead, c.Results, c.BoundEvals, c.ExactSims, c.Refinements, c.Rebounds)
	}
	return b.String()
}
