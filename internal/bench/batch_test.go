package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

func testBatchBench(label string, rows []BatchBenchRow) *BatchBench {
	return &BatchBench{
		Label:  label,
		Schema: 1,
		Mode:   batchModeTag,
		Workload: BaselineWorkload{
			Profile: "gn", Objects: 2500, Queries: 16,
			K: 10, Alpha: 0.5, Seed: 7, Iters: 3,
		},
		Rows: rows,
	}
}

// TestRunBatchBench smoke-runs the harness at tiny scale and pins the
// row invariants: every requested size yields an independent row plus a
// shared row, shared rows read no more nodes than independent ones, and
// Reduction is their ratio.
func TestRunBatchBench(t *testing.T) {
	cfg := Config{Scale: 0.02, Queries: 6, Seed: 7}
	b, err := RunBatchBench(cfg, "t", []int{1, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Mode != batchModeTag || b.Schema != 1 {
		t.Fatalf("header = mode %q schema %d", b.Mode, b.Schema)
	}
	if len(b.Rows) != 4 {
		t.Fatalf("rows = %d, want independent+shared per size", len(b.Rows))
	}
	for i := 0; i < len(b.Rows); i += 2 {
		ind, sh := b.Rows[i], b.Rows[i+1]
		if ind.Shared || !sh.Shared || ind.BatchSize != sh.BatchSize {
			t.Fatalf("row pair %d mispaired: %+v / %+v", i, ind, sh)
		}
		if ind.Reduction != 1 {
			t.Errorf("independent reduction = %g, want 1", ind.Reduction)
		}
		if sh.NodesRead > ind.NodesRead {
			t.Errorf("batch=%d: shared reads %.1f nodes/query, more than independent %.1f",
				sh.BatchSize, sh.NodesRead, ind.NodesRead)
		}
		if want := ind.NodesRead / sh.NodesRead; sh.Reduction != want {
			t.Errorf("batch=%d: reduction %g != %g", sh.BatchSize, sh.Reduction, want)
		}
		if sh.Results != ind.Results {
			t.Errorf("batch=%d: results/query drifted %g vs %g", sh.BatchSize, sh.Results, ind.Results)
		}
	}
}

func TestReadBatchBenchFileRoundTripAndMode(t *testing.T) {
	b := testBatchBench("rt", []BatchBenchRow{
		{BatchSize: 4, Shared: true, NsPerQuery: 42, NodesRead: 7.5, Reduction: 3.2},
	})
	path := filepath.Join(t.TempDir(), "BENCH_rt.json")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	mode, err := BenchFileMode(path)
	if err != nil || mode != batchModeTag {
		t.Fatalf("mode probe = %q, %v", mode, err)
	}
	got, err := ReadBatchBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "rt" || len(got.Rows) != 1 || got.Rows[0].NodesRead != 7.5 || !got.Rows[0].Shared {
		t.Errorf("round-trip mismatch: %+v", got)
	}

	// A scaling baseline is not a batch record — and probes as mode "".
	sb := testBaseline("plain", []BaselineRow{{Workers: 1}})
	plain := filepath.Join(t.TempDir(), "BENCH_plain.json")
	if err := sb.WriteFile(plain); err != nil {
		t.Fatal(err)
	}
	if mode, err := BenchFileMode(plain); err != nil || mode != "" {
		t.Fatalf("baseline mode probe = %q, %v", mode, err)
	}
	if _, err := ReadBatchBenchFile(plain); err == nil {
		t.Fatal("ReadBatchBenchFile accepted a scaling baseline")
	}
}

func TestCompareBatchDeltasAndRegressions(t *testing.T) {
	oldB := testBatchBench("old", []BatchBenchRow{
		{BatchSize: 4, NsPerQuery: 1000, NodesRead: 50, PagesPerQuery: 60, Reduction: 1},
		{BatchSize: 4, Shared: true, NsPerQuery: 800, NodesRead: 10, PagesPerQuery: 12, Reduction: 5},
	})
	newB := testBatchBench("new", []BatchBenchRow{
		{BatchSize: 4, NsPerQuery: 1000, NodesRead: 50, PagesPerQuery: 60, Reduction: 1},
		{BatchSize: 4, Shared: true, NsPerQuery: 800, NodesRead: 25, PagesPerQuery: 30, Reduction: 2},
	})
	newB.Workload.Iters = 1 // iters never gates

	cmp, err := CompareBatch(oldB, newB, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(cmp.Rows))
	}
	if cmp.Rows[1].Label != "batch=4 shared" {
		t.Errorf("shared row label = %q", cmp.Rows[1].Label)
	}
	m := cmp.Rows[1].Metrics[1] // shared nodes-read: 10 -> 25
	if m.Name != "nodes-read" || m.DeltaPct != 150 || !m.Regressed {
		t.Errorf("nodes-read metric = %+v, want +150%% regressed", m)
	}
	var matched int
	for _, r := range cmp.Regressions {
		if strings.Contains(r, "batch=4 shared nodes-read") {
			matched++
		}
	}
	if matched != 1 {
		t.Errorf("regressions = %v, want one batch=4 shared nodes-read entry", cmp.Regressions)
	}

	var sb strings.Builder
	cmp.Render(&sb)
	if !strings.Contains(sb.String(), "batch=4 shared") || !strings.Contains(sb.String(), "REGRESSED") {
		t.Errorf("render output missing batch labels or REGRESSED marker:\n%s", sb.String())
	}

	newB.Workload.Seed = 8
	if _, err := CompareBatch(oldB, newB, 10); err == nil {
		t.Fatal("CompareBatch accepted records from different workloads")
	}
	newB.Workload.Seed = 7
	newB.Rows = []BatchBenchRow{{BatchSize: 64}}
	if _, err := CompareBatch(oldB, newB, 10); err == nil {
		t.Fatal("CompareBatch accepted records with no common rows")
	}
}
