package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"rstknn/internal/core"
	"rstknn/internal/dataset"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	ds := []time.Duration{4 * time.Millisecond, 1 * time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond}
	if got := percentile(ds, 50); got != 2.5 {
		t.Errorf("p50 = %g, want 2.5", got)
	}
	if got := percentile(ds, 100); got != 4 {
		t.Errorf("p100 = %g, want 4", got)
	}
}

// TestOpenLoopCountsLateness stalls the first call past two later due
// times: those calls must be sent late, and their latency must count
// from when they were due, not from when they were sent.
func TestOpenLoopCountsLateness(t *testing.T) {
	const interval = 20 * time.Millisecond
	const stall = 70 * time.Millisecond
	lat, late := openLoop(time.Now(), interval, 5, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	}, nil)
	if len(lat) != 5 || len(late) != 5 {
		t.Fatalf("got %d latencies and %d lateness samples, want 5 each", len(lat), len(late))
	}
	if lat[0] < stall {
		t.Errorf("stalled call latency %v, want >= %v", lat[0], stall)
	}
	// Call i was due at i*interval but could only start after the stall.
	for i := 1; i <= 3; i++ {
		if want := stall - time.Duration(i)*interval; late[i] < want {
			t.Errorf("call %d sent %v late, want >= %v", i, late[i], want)
		}
		if lat[i] < late[i] {
			t.Errorf("call %d latency %v is below its lateness %v", i, lat[i], late[i])
		}
	}
	if late[4] > interval {
		t.Errorf("call 4 is due after the backlog cleared but was %v late", late[4])
	}
}

// TestTracedBlobsKeepsTrackerCounts runs the same queries on a tree
// over a plain store and on one over the tracing decorator: results and
// every Tracker counter must be identical, with the buffer pool both hit
// and missed.
func TestTracedBlobsKeepsTrackerCounts(t *testing.T) {
	col := dataset.Generate(dataset.GN, dataset.Params{N: 300, Seed: 3})
	tr := newTracer()
	plain, err := iurtree.Build(col.Objects, iurtree.Config{Store: storage.NewStore(storage.WithBufferPool(4))})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := iurtree.Build(col.Objects, iurtree.Config{Store: &tracedBlobs{Blobs: storage.NewStore(storage.WithBufferPool(4)), t: tr}})
	if err != nil {
		t.Fatal(err)
	}
	opt := func(trk *storage.Tracker) core.Options {
		return core.Options{K: 5, Alpha: alpha, Sim: vector.ByName("ej"), Workers: 1, Ctx: context.Background(), Tracker: trk}
	}
	var hits, misses int64
	for i, q := range col.Queries(8, 4) {
		cq := core.Query{Loc: q.Loc, Doc: q.Doc}
		var want, got storage.Tracker
		wo, err := core.RSTkNN(plain, cq, opt(&want))
		if err != nil {
			t.Fatal(err)
		}
		r := tr.begin(spanQuery, &got)
		gotOut, err := core.RSTkNN(traced, cq, opt(&got))
		tr.finish(r, &got)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(wo.Results, gotOut.Results) {
			t.Errorf("query %d: results differ", i)
		}
		if want.Stats() != got.Stats() || want.SharedReads() != got.SharedReads() {
			t.Errorf("query %d: tracker %+v through the decorator, %+v without", i, got.Stats(), want.Stats())
		}
		hits += got.CacheHits()
		misses += got.Reads()
	}
	if hits == 0 || misses == 0 {
		t.Errorf("want both pool hits and misses, got %d and %d", hits, misses)
	}
	tot := tr.totalsOf(spanQuery)
	if tot.requests != 8 || tot.spans[spanGet] == 0 {
		t.Errorf("tracer saw %d requests and %d gets, want 8 and > 0", tot.requests, tot.spans[spanGet])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %g %g %g, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lat := specMetric{Name: "query_p50_ms", Better: "lower", Bound: 0.1}
	qps := specMetric{Name: "query_throughput_qps", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		a, b []float64
		m    specMetric
		want string
	}{
		{"same", steady, steady, lat, "unchanged"},
		{"slower", steady, []float64{120, 121, 119, 120, 122}, lat, "worse"},
		{"faster", steady, []float64{80, 81, 79, 80, 82}, lat, "better"},
		{"more qps", steady, []float64{120, 121, 119, 120, 122}, qps, "better"},
		{"noisy", steady, []float64{60, 140, 100, 80, 120}, lat, "unresolved"},
		{"noisy but all worse", steady, []float64{150, 300, 200, 160, 400}, lat, "worse"},
	} {
		if got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCompareRefusesMixedConditions compares a record set with sets from
// the same conditions, another machine and another run length: only the
// first may be compared.
func TestCompareRefusesMixedConditions(t *testing.T) {
	here := record{Workload: "mem-single", Seed: 1, Seconds: 20, Machine: thisMachine(),
		result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"query_p50_ms": {10, "ms"}}}}
	other := here
	other.Machine.NumCPU++
	shorter := here
	shorter.Seconds = 5
	dir := t.TempDir()
	write := func(name string, recs ...record) string {
		path := filepath.Join(dir, name+".jsonl")
		for _, rec := range recs {
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a", here, here)
	for _, c := range []struct {
		name string
		b    record
		ok   bool
	}{{"same", here, true}, {"other-machine", other, false}, {"shorter", shorter, false}} {
		err := compareFiles(io.Discard, "../BENCHMARK.json", a, write(c.name, c.b))
		if (err == nil) != c.ok {
			t.Errorf("%s: compare error %v, want error %v", c.name, err, !c.ok)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at a twentieth of its size
// with tracing on, which also runs the untraced phase, the replica
// equality check and the write probe. Its metrics must be exactly those
// BENCHMARK.json lists, with the same units.
func TestSmokeAllWorkloads(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(buf, &sp); err != nil {
		t.Fatal(err)
	}
	sameMetrics := func(what string, got []metric, want []specMetric) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s metric %d: %s (%s), BENCHMARK.json has %s (%s)", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	start := time.Now()
	for _, w := range workloads {
		r, err := runWorkload(config{workload: w, seed: 11, seconds: 0.4, trace: true, scale: 0.05, workdir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		rec := r.record()
		if !rec.Correct {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, rec.Failed, rec.Attempted, rec.Errors)
		}
		sameMetrics("end-to-end", r.endToEnd(), sp.EndToEnd)
		sameMetrics("per-layer", r.perLayer(), sp.PerLayer)
		for _, m := range append(r.endToEnd(), r.perLayer()...) {
			if m.value != m.value { // NaN
				t.Errorf("%s: %s is NaN", w.name, m.name)
			}
		}
		for _, m := range r.endToEnd() {
			if m.value <= 0 {
				t.Errorf("%s: end-to-end %s = %g, want > 0", w.name, m.name, m.value)
			}
		}
		if r.trace.phase.queries == 0 || r.trace.writes.updates == 0 {
			t.Errorf("%s: traced run answered %d queries and %d updates", w.name, r.trace.phase.queries, r.trace.writes.updates)
		}
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke run took %v, want under 15s", d)
	}
}
