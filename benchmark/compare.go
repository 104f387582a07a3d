package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// spec is the part of BENCHMARK.json --compare reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// quartiles returns the three cut points of vs as Python's
// statistics.quantiles(vs, n=4) (the "exclusive" method) gives them, so
// spreads read the same here as in any script using it. vs needs at
// least two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	d := slices.Clone(vs)
	slices.Sort(d)
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// summary is one run set's median and quartiles of a metric.
type summary struct {
	n           int
	q1, med, q3 float64
}

func summarize(vs []float64) summary {
	switch len(vs) {
	case 0:
		return summary{}
	case 1:
		return summary{1, vs[0], vs[0], vs[0]}
	}
	q1, med, q3 := quartiles(vs)
	return summary{len(vs), q1, med, q3}
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 { return math.Abs(per(s.q3-s.q1, s.med)) }

// verdict judges run set b against run set a for one metric: worse or
// better when b's median moved past the bound in that direction,
// unchanged within it, and unresolved when either set spreads wider than
// the bound, unless every run of b beats (or loses to) every run of a.
func verdict(a, b []float64, m specMetric) string {
	sa, sb := summarize(a), summarize(b)
	sign := 1.0 // positive change = worse
	if m.Better == "higher" {
		sign = -1
	}
	worseBy := func(x, y float64) float64 { return sign * (y - x) } // how much worse y is than x
	if max(sa.spread(), sb.spread()) > m.Bound {
		allBetter, allWorse := true, true
		for _, x := range a {
			for _, y := range b {
				allBetter = allBetter && worseBy(x, y) < 0
				allWorse = allWorse && worseBy(x, y) > 0
			}
		}
		switch {
		case allBetter:
			return "better"
		case allWorse:
			return "worse"
		}
		return "unresolved"
	}
	change := per(worseBy(sa.med, sb.med), math.Abs(sa.med))
	switch {
	case change > m.Bound:
		return "worse"
	case change < -m.Bound:
		return "better"
	}
	return "unchanged"
}

// compareFiles prints, for every (workload, metric) pair present in both
// record files, each set's median and quartiles, and for end-to-end
// metrics a verdict against the bound in the spec. It refuses records
// from different machines or run lengths.
func compareFiles(w io.Writer, specPath, pathA, pathB string) error {
	buf, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(buf, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	if err := sameConditions(append(slices.Clip(a), b...)); err != nil {
		return err
	}
	va, vb := values(a), values(b)
	fmt.Fprintf(w, "A = %s, B = %s; median [q1, q3] over the runs of each set\n", pathA, pathB)
	for _, wl := range workloads {
		for _, group := range []struct {
			metrics []specMetric
			gated   bool
		}{{sp.EndToEnd, true}, {sp.PerLayer, false}} {
			for _, m := range group.metrics {
				key := wl.name + "/" + m.Name
				xa, xb := va[key], vb[key]
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				v := "-"
				if group.gated {
					v = verdict(xa, xb, m)
				}
				sa, sb := summarize(xa), summarize(xb)
				fmt.Fprintf(w, "%-12s %-38s %-6s A %12.4f [%.4f, %.4f] n=%d  B %12.4f [%.4f, %.4f] n=%d  %+7.2f%%  %s\n",
					wl.name, m.Name, m.Unit, sa.med, sa.q1, sa.q3, sa.n, sb.med, sb.q1, sb.q3, sb.n,
					100*per(sb.med-sa.med, math.Abs(sa.med)), v)
			}
		}
	}
	return nil
}

// sameConditions refuses records measured on different machines or for
// different lengths of time: their numbers do not compare.
func sameConditions(recs []record) error {
	for _, r := range recs {
		first := recs[0]
		switch {
		case r.Machine != first.Machine:
			return fmt.Errorf("records from different machines: %s seed %d ran on %+v, %s seed %d on %+v",
				first.Workload, first.Seed, first.Machine, r.Workload, r.Seed, r.Machine)
		case r.Seconds != first.Seconds:
			return fmt.Errorf("records of different lengths: %s seed %d ran %gs, %s seed %d %gs",
				first.Workload, first.Seed, first.Seconds, r.Workload, r.Seed, r.Seconds)
		}
	}
	return nil
}

// values groups the metric values of records by "workload/metric".
func values(recs []record) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range recs {
		for name, v := range r.Metrics {
			key := r.Workload + "/" + name
			out[key] = append(out[key], v.Value)
		}
	}
	return out
}
