package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"rstknn/internal/iurtree"
)

type metric struct {
	name  string
	unit  string
	value float64
}

// percentile returns the p-th percentile of ds in milliseconds, by
// linear interpolation between closest ranks, or 0 for no samples.
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	return (float64(s[lo])*(1-frac) + float64(s[hi])*frac) / float64(time.Millisecond)
}

// tailPercentiles are the percentiles a timing may be reported at.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// highestPercentile returns the highest of tailPercentiles with at least
// ten of n samples beyond it, or 0 when even the median has fewer.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p) >= 1000-1e-6 { // n*(100-p)/100 >= 10, exact at 90 and 99.9

			return p
		}
	}
	return 0
}

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

// per divides, reading 0 for an empty base (a count the workload does
// not exercise).
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd are the metrics a user of the engine sees, all from the
// untraced run.
func (r *run) endToEnd() []metric {
	m := &r.main
	return []metric{
		{"setup_s", "s", r.setup.Seconds()},
		{"query_throughput_qps", "1/s", m.qps()},
		{"query_p50_ms", "ms", percentile(m.callLat, 50)},
		{"query_p90_ms", "ms", percentile(m.callLat, 90)},
		{"engine_heap_mb", "MB", r.engineHeapMB},
	}
}

// perLayer splits the run by layer: counts from the untraced run's
// QueryStats, BatchStats, UpdateStats, IndexStats and MemStats, times
// from the traced replica run. A layer the workload does not exercise
// reads 0.
func (r *run) perLayer() []metric {
	m, t, wr := &r.main, r.trace, r.writes
	q := float64(m.queries)
	u := float64(wr.updates)
	tq := float64(t.phase.queries)
	tu := float64(t.writes.updates)
	objects := float64(len(r.in.objects))
	hits := float64(r.st1.BoundCacheHits - r.st0.BoundCacheHits)
	misses := float64(r.st1.BoundCacheMisses - r.st0.BoundCacheMisses)
	ms := func(ns int64, n float64) float64 { return per(float64(ns), n) / 1e6 }
	us := func(ns int64, n float64) float64 { return per(float64(ns), n) / 1e3 }
	return []metric{
		{"core.self_ms_per_query", "ms", ms(t.queries.selfNs[spanRSTkNN]+t.queries.selfNs[spanMulti], tq)},
		{"core.nodes_read_per_query", "count", per(float64(m.nodesRead), q)},
		{"core.bound_evals_per_query", "count", per(float64(m.boundEvals), q)},
		{"core.exact_sims_per_query", "count", per(float64(m.exactSims), q)},
		{"core.refinements_per_query", "count", per(float64(m.refinements), q)},
		{"core.candidates_per_query", "count", per(float64(m.candidates), q)},
		{"core.decided_at_node_ratio", "ratio", per(float64(m.decided), q*objects)},
		{"core.batch_physical_nodes_per_query", "count", per(float64(m.batchPhysical), q)},
		{"core.batch_shared_hits_per_query", "count", per(float64(m.batchShared), q)},
		{"core.results_per_query", "count", per(float64(m.results), q)},
		{"storage.get_self_us_per_query", "us", us(t.queries.selfNs[spanGet], tq)},
		{"storage.gets_per_query", "count", per(float64(t.queries.spans[spanGet]), tq)},
		{"storage.pages_read_per_query", "count", per(float64(m.pageAccesses), q)},
		{"storage.pool_hit_ratio", "ratio", r.st1.BufferPoolHitRatio()},
		{"storage.open_ms", "ms", float64(r.open) / 1e6},
		{"storage.put_self_us_per_update", "us", us(t.updates.selfNs[spanPut], tu)},
		{"storage.reclaim_pending_max", "count", float64(wr.pendingMax)},
		{"storage.live_bytes_per_object", "B", per(float64(r.st1.LiveBytes), float64(r.st1.Objects))},
		{"iurtree.update_ms", "ms", ms(t.updates.selfNs[spanUpdate], tu)},
		{"iurtree.writes_per_update", "count", per(float64(wr.writes), u)},
		{"iurtree.pages_written_per_update", "count", per(float64(wr.pagesWritten), u)},
		{"iurtree.retired_per_update", "count", per(float64(wr.retire), u)},
		{"iurtree.bound_cache_hit_ratio", "ratio", per(hits, hits+misses)},
		{"rstknn.apply_overhead_ms", "ms", ms(t.updates.selfNs[spanApply], tu)},
		{"rstknn.update_p50_ms", "ms", percentile(wr.updLat, 50)},
		{"rstknn.update_p90_ms", "ms", percentile(wr.updLat, 90)},
		{"textual.vectorize_us_per_query", "us", us(t.queries.selfNs[spanVectorize], tq)},
		{"runtime.alloc_bytes_per_query", "B", per(float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc), q)},
		{"runtime.allocs_per_query", "count", per(float64(r.mem1.Mallocs-r.mem0.Mallocs), q)},
		{"runtime.gc_cycles", "count", float64(r.mem1.NumGC - r.mem0.NumGC)},
		{"runtime.gc_cpu_fraction", "ratio", per(r.cpu1.gc-r.cpu0.gc, r.cpu1.total-r.cpu0.total)},
		{"runtime.rss_median_mb", "MB", r.rssMB},
		{"runtime.peak_rss_mb", "MB", r.peakRSSMB},
		{"loadgen.writer_late_p90_ms", "ms", percentile(wr.late, 90)},
		{"trace.overhead_pct", "%", 100 * (1 - per(t.phase.qps(), m.qps()))},
	}
}

// gcCPU is the runtime's cumulative CPU time: spent on GC other than
// idle-time marking (what MemStats.GCCPUFraction counts), and in total.
// The runtime updates both at the end of each GC cycle.
type gcCPU struct{ gc, total float64 }

func readGCCPU() gcCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcCPU{s[0].Value.Float64() - s[1].Value.Float64(), s[2].Value.Float64()}
}

// heapLiveMB runs two full GCs and returns the heap the second marked
// live, in MB. The first GC moves sync.Pool contents to the pools'
// victim caches and the second frees them, so pooled scratch does not
// count: under load it follows the timing of GCs, not the engine.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// statusMB reads a kB field of /proc/self/status, such as the
// resident-set high-water mark VmHWM, in MB.
func statusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// machine identifies where a run was measured, so numbers from
// different machines are never compared unknowingly.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func thisMachine() machine {
	return machine{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH}
}

// sizes records what the run measured and how the engine's caches
// compare with the index.
type sizes struct {
	Objects           int     `json:"objects"`
	QueriesAnswered   int64   `json:"queries_answered"`
	Calls             int     `json:"calls"`
	Updates           int64   `json:"updates"`
	LoadGoroutines    int     `json:"load_goroutines"`
	Batch             int     `json:"batch"`
	IndexNodes        int64   `json:"index_nodes"`
	IndexPages        int64   `json:"index_pages"`
	PoolPages         int     `json:"buffer_pool_pages"`
	PoolShare         float64 `json:"buffer_pool_share_of_index_pages"`
	BoundCacheNodes   int     `json:"bound_cache_nodes"`
	BoundCacheShare   float64 `json:"bound_cache_share_of_index_nodes"`
	HighestPercentile float64 `json:"highest_supported_percentile"`
}

func (r *run) sizes() sizes {
	w := r.cfg.workload
	goroutines := w.clients
	if w.writeHz > 0 {
		goroutines++
	}
	return sizes{
		Objects:           len(r.in.objects),
		QueriesAnswered:   r.main.queries,
		Calls:             len(r.main.callLat),
		Updates:           r.main.updates,
		LoadGoroutines:    goroutines,
		Batch:             w.batch,
		IndexNodes:        r.st1.Nodes,
		IndexPages:        r.st1.LivePages,
		PoolPages:         w.pool,
		PoolShare:         per(float64(w.pool), float64(r.st1.LivePages)),
		BoundCacheNodes:   iurtree.DefaultBoundCacheNodes,
		BoundCacheShare:   per(iurtree.DefaultBoundCacheNodes, float64(r.st1.Nodes)),
		HighestPercentile: highestPercentile(len(r.main.callLat)),
	}
}
