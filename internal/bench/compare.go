package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Comparing two BENCH_<label>.json records turns the checked-in baseline
// into a regression gate: `rstknn-bench -compare old.json new.json`
// prints the per-row deltas and exits non-zero when any cost metric
// regressed past the threshold. Wall-clock is noisy across machines (the
// Machine blocks are allowed to differ); nodes-read and the other
// per-query counters are deterministic for a pinned workload, and
// TestGoldenCountersPinnedWorkload gates them exactly.

// ReadBaselineFile loads a BENCH_<label>.json written by WriteFile.
func ReadBaselineFile(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.Schema != 1 {
		return nil, fmt.Errorf("%s: unsupported schema %d", path, b.Schema)
	}
	return &b, nil
}

// CompareMetric is one measured quantity's old/new pair. For every
// metric, larger is worse; DeltaPct is the relative change in percent
// (positive = regression, negative = improvement).
type CompareMetric struct {
	Name      string
	Old, New  float64
	DeltaPct  float64
	Regressed bool
}

// CompareRow is the metric-by-metric delta at one row of the record:
// one worker count for scaling baselines (Workers set, Label empty), one
// (batch size, mode) cell for batch records (Label set by CompareBatch).
type CompareRow struct {
	Workers int
	Label   string
	Metrics []CompareMetric
}

// Comparison is the result of diffing two records on the same workload.
// Compare fills Old/New; CompareBatch fills OldBatch/NewBatch.
type Comparison struct {
	Old, New           *Baseline
	OldBatch, NewBatch *BatchBench
	Rows               []CompareRow
	// Regressions lists every metric whose relative increase exceeded
	// the threshold, formatted for an error message.
	Regressions []string
}

// Compare diffs two baseline records row by row. The workloads must
// match in everything but Iters (more timed passes change variance, not
// the workload); rows are matched on the worker counts present in both
// files. A metric regresses when new exceeds old by more than
// thresholdPct percent.
func Compare(oldB, newB *Baseline, thresholdPct float64) (*Comparison, error) {
	ow, nw := oldB.Workload, newB.Workload
	ow.Iters, nw.Iters = 0, 0
	if ow != nw {
		return nil, fmt.Errorf("workloads differ: old %+v vs new %+v", ow, nw)
	}
	oldRows := make(map[int]BaselineRow, len(oldB.Rows))
	for _, r := range oldB.Rows {
		oldRows[r.Workers] = r
	}
	cmp := &Comparison{Old: oldB, New: newB}
	for _, nr := range newB.Rows {
		or, ok := oldRows[nr.Workers]
		if !ok {
			continue
		}
		row := CompareRow{Workers: nr.Workers}
		for _, m := range []CompareMetric{
			{Name: "ns/op", Old: float64(or.NsPerOp), New: float64(nr.NsPerOp)},
			{Name: "allocs/op", Old: float64(or.AllocsPerOp), New: float64(nr.AllocsPerOp)},
			{Name: "bytes/op", Old: float64(or.BytesPerOp), New: float64(nr.BytesPerOp)},
			{Name: "nodes-read", Old: or.NodesRead, New: nr.NodesRead},
		} {
			if m.Old != 0 {
				m.DeltaPct = (m.New - m.Old) / m.Old * 100
			} else if m.New != 0 {
				m.DeltaPct = 100
			}
			m.Regressed = m.DeltaPct > thresholdPct
			if m.Regressed {
				cmp.Regressions = append(cmp.Regressions,
					fmt.Sprintf("workers=%d %s %+.1f%% (%.0f -> %.0f)",
						nr.Workers, m.Name, m.DeltaPct, m.Old, m.New))
			}
			row.Metrics = append(row.Metrics, m)
		}
		cmp.Rows = append(cmp.Rows, row)
	}
	if len(cmp.Rows) == 0 {
		return nil, fmt.Errorf("no common worker counts between %q and %q", oldB.Label, newB.Label)
	}
	return cmp, nil
}

// Render writes the comparison as a per-row table.
func (c *Comparison) Render(w io.Writer) {
	oldLabel, newLabel := "", ""
	var wl BaselineWorkload
	var mach BaselineMachine
	if c.NewBatch != nil {
		oldLabel, newLabel = c.OldBatch.Label, c.NewBatch.Label
		wl, mach = c.NewBatch.Workload, c.NewBatch.Machine
	} else {
		oldLabel, newLabel = c.Old.Label, c.New.Label
		wl, mach = c.New.Workload, c.New.Machine
	}
	fmt.Fprintf(w, "compare: %s -> %s  (%s/%s, %d objects, %d queries, seed %d)\n",
		oldLabel, newLabel, wl.Profile, mach.GOARCH,
		wl.Objects, wl.Queries, wl.Seed)
	for _, row := range c.Rows {
		if row.Label != "" {
			fmt.Fprintf(w, "%s\n", row.Label)
		} else {
			fmt.Fprintf(w, "workers=%d\n", row.Workers)
		}
		for _, m := range row.Metrics {
			flag := ""
			if m.Regressed {
				flag = "  REGRESSED"
			}
			fmt.Fprintf(w, "  %-10s %14.1f -> %14.1f  %+7.1f%%%s\n",
				m.Name, m.Old, m.New, m.DeltaPct, flag)
		}
	}
}
