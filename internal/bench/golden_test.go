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
// tree searched with RefineByEntropy (E-CIUR). They were last
// regenerated when the rebound pass began to stop as soon as the group
// is decided: the NodesRead, Results and Refinements columns did not
// move, for either method or any pass, while BoundEvals, ExactSims and
// Rebounds fell query by query (IUR query 0 from 9465, 9587, 13850).
//
// Fields: NodesRead, Results, BoundEvals, ExactSims, Refinements,
// Rebounds. Regenerate from the failure log, which prints the current
// counters in this form, only for a change that is meant to alter the
// search's work.
var goldenPinned = map[string][]goldenCounters{
	"IUR": {
		{137, 7, 3664, 5953, 109, 4415},
		{843, 5, 14959, 32294, 761, 17929},
		{104, 4, 2605, 4983, 79, 3555},
		{1586, 20, 14158, 54938, 1504, 16376},
		{5992, 84, 23063, 192873, 5909, 23874},
		{291, 5, 6375, 12105, 224, 7396},
		{6369, 102, 24108, 204736, 6286, 23788},
		{116, 9, 2337, 5168, 100, 3444},
		{63, 2, 1565, 2947, 50, 2141},
		{2117, 31, 14637, 70564, 2034, 15953},
		{107, 4, 1660, 5049, 94, 2964},
		{436, 5, 9303, 17488, 364, 10902},
		{180, 4, 2828, 7671, 156, 4117},
		{100, 4, 2490, 4949, 80, 3711},
		{545, 7, 7624, 19056, 465, 6943},
		{74, 4, 2104, 3703, 52, 2779},
	},
	"E-CIUR": {
		{117, 7, 19465, 5025, 89, 9911},
		{872, 5, 33501, 31883, 790, 26271},
		{75, 4, 16409, 3752, 53, 7188},
		{1412, 20, 31284, 46948, 1330, 22448},
		{5093, 84, 41285, 162819, 5010, 31445},
		{247, 5, 20046, 9699, 195, 11176},
		{5481, 102, 42502, 173774, 5399, 30788},
		{109, 9, 12674, 4841, 93, 5252},
		{55, 2, 14538, 2618, 42, 4872},
		{1800, 31, 32391, 58421, 1717, 22705},
		{76, 4, 13610, 3987, 64, 4726},
		{381, 5, 24405, 13995, 313, 15388},
		{115, 4, 16967, 5300, 92, 7956},
		{94, 4, 17642, 4647, 74, 8590},
		{460, 7, 22154, 14572, 382, 10853},
		{52, 4, 17098, 2883, 30, 7532},
	},
}

// pinnedPasses are the executions of the pinned workload that must all
// reproduce goldenPinned: the sequential search, the intra-query worker
// pool, and the batch path (core.MultiRSTkNN) in batches of 16.
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
// counts and between batch and independent execution. The IUR means
// must also stay at 1191.25 nodes and 18.5625 results per query, the
// figures the pinned workload has had at Workers=1 since it was first
// recorded.
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
		t.Errorf("IUR golden means = %v nodes, %v results per query, want 1191.25, 18.5625", mn, mr)
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
