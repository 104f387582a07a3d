package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rstknn"
)

// target is what the load generator drives: the public Engine for
// end-to-end numbers, or the traced replica of its layers.
type target interface {
	query(r rstknn.QueryRequest) (*rstknn.Result, error)
	// batch answers len(rs) >= 2 requests in one shared traversal.
	batch(rs []rstknn.QueryRequest) ([]rstknn.BatchResult, rstknn.BatchStats)
	apply(b rstknn.Batch) (*rstknn.UpdateStats, error)
	// pendingReclaim is the number of retired nodes not yet freed. The
	// Engine's count comes from Stats, which scans the store, so the
	// writer reads it outside its timed calls.
	pendingReclaim() int
}

// engineTarget drives the public API with Workers:1 and batch
// parallelism 1, so each load goroutine uses at most one CPU.
type engineTarget struct{ eng *rstknn.Engine }

func (t engineTarget) query(r rstknn.QueryRequest) (*rstknn.Result, error) {
	return t.eng.QueryCtx(context.Background(), r.X, r.Y, r.Text, r.K)
}

func (t engineTarget) batch(rs []rstknn.QueryRequest) ([]rstknn.BatchResult, rstknn.BatchStats) {
	return t.eng.BatchQueryStatsCtx(context.Background(), rs, 1)
}

func (t engineTarget) apply(b rstknn.Batch) (*rstknn.UpdateStats, error) { return t.eng.Apply(b) }

func (t engineTarget) pendingReclaim() int { return t.eng.Stats().PendingReclaim }

// tally sums the engine's own per-operation counters over a phase.
type tally struct {
	queries                      int64
	nodesRead, pageAccesses      int64
	boundEvals, exactSims        int64
	refinements, candidates      int64
	decided, results             int64
	batchPhysical, batchShared   int64
	updates                      int64
	writes, pagesWritten, retire int64
	pendingMax                   int
}

func (t *tally) addQuery(res *rstknn.Result) {
	s := res.Stats
	t.queries++
	t.nodesRead += int64(s.NodesRead)
	t.pageAccesses += s.PageAccesses
	t.boundEvals += s.BoundEvals
	t.exactSims += s.ExactSims
	t.refinements += int64(s.Refinements)
	t.candidates += int64(s.Candidates)
	t.decided += int64(s.GroupPruned + s.GroupReported)
	t.results += int64(len(res.IDs))
}

func (t *tally) addBatch(bs rstknn.BatchStats) {
	t.batchPhysical += int64(bs.NodesRead)
	t.batchShared += int64(bs.SharedHits)
	t.pageAccesses += bs.PageAccesses
}

func (t *tally) addUpdate(us *rstknn.UpdateStats) {
	t.updates++
	t.writes += us.Writes
	t.pagesWritten += us.PagesWritten
	t.retire += int64(us.Retired)
}

func (t *tally) merge(o *tally) {
	t.queries += o.queries
	t.nodesRead += o.nodesRead
	t.pageAccesses += o.pageAccesses
	t.boundEvals += o.boundEvals
	t.exactSims += o.exactSims
	t.refinements += o.refinements
	t.candidates += o.candidates
	t.decided += o.decided
	t.results += o.results
	t.batchPhysical += o.batchPhysical
	t.batchShared += o.batchShared
	t.updates += o.updates
	t.writes += o.writes
	t.pagesWritten += o.pagesWritten
	t.retire += o.retire
	t.pendingMax = max(t.pendingMax, o.pendingMax)
}

// phase is what one measured phase observed.
type phase struct {
	elapsed time.Duration
	// callLat holds one latency per call: a QueryCtx call, or a whole
	// batch call.
	callLat []time.Duration
	// updLat is each update's latency from its scheduled send time, late
	// how far behind schedule the writer sent it.
	updLat, late []time.Duration
	tally
	attempted, failed int64
	errs              []string
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.errs) < 8 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

func (p *phase) merge(o *phase) {
	p.callLat = append(p.callLat, o.callLat...)
	p.updLat = append(p.updLat, o.updLat...)
	p.late = append(p.late, o.late...)
	p.tally.merge(&o.tally)
	p.attempted += o.attempted
	p.failed += o.failed
	for _, e := range o.errs {
		if len(p.errs) < 8 {
			p.errs = append(p.errs, e)
		}
	}
}

func (p *phase) qps() float64 { return float64(p.queries) / p.elapsed.Seconds() }

// checker compares answers to the first len(refs) requests of the list
// with their reference answers.
type checker struct{ refs [][]int32 }

func (c checker) check(p *phase, reqIdx int, ids []int32) {
	if reqIdx < len(c.refs) && !slices.Equal(ids, c.refs[reqIdx]) {
		p.fail("request %d: got %d results, reference has %d", reqIdx, len(ids), len(c.refs[reqIdx]))
	}
}

// sendQueries runs the workload's closed-loop clients over reqs,
// starting at request 0 and wrapping around, until stop(first) returns
// true for the index of the next call's first request. Each client
// sends its next call only after the previous one returned.
func sendQueries(t target, w workload, reqs []rstknn.QueryRequest, chk checker, stop func(first int) bool) phase {
	var next atomic.Int64
	step := max(1, w.batch)
	per := make([]phase, w.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range per {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			buf := make([]rstknn.QueryRequest, step)
			for {
				first := int(next.Add(int64(step))) - step
				if stop(first) {
					return
				}
				for j := range buf {
					buf[j] = reqs[(first+j)%len(reqs)]
				}
				p.attempted++
				t0 := time.Now()
				if w.batch == 0 {
					res, err := t.query(buf[0])
					p.callLat = append(p.callLat, time.Since(t0))
					if err != nil {
						p.fail("query: %v", err)
						continue
					}
					p.addQuery(res)
					chk.check(p, first%len(reqs), res.IDs)
					continue
				}
				out, bs := t.batch(buf)
				p.callLat = append(p.callLat, time.Since(t0))
				p.addBatch(bs)
				for j, br := range out {
					if br.Err != nil {
						p.fail("batch query: %v", br.Err)
						continue
					}
					p.addQuery(br.Result)
					chk.check(p, (first+j)%len(reqs), br.Result.IDs)
				}
			}
		}(&per[c])
	}
	wg.Wait()
	var all phase
	all.elapsed = time.Since(start)
	for i := range per {
		all.merge(&per[i])
	}
	return all
}

// runPhase measures one phase of dur: the workload's query clients and,
// for a churn workload, its open-loop writer, which sets the phase's end.
func runPhase(t target, w workload, reqs []rstknn.QueryRequest, chk checker, upd *updateStream, dur time.Duration) phase {
	deadline := time.Now().Add(dur)
	if w.writeHz == 0 {
		return sendQueries(t, w, reqs, chk, func(int) bool { return !time.Now().Before(deadline) })
	}
	var writing atomic.Bool
	writing.Store(true)
	var wp phase
	done := make(chan struct{})
	go func() {
		defer close(done)
		interval := time.Duration(float64(time.Second) / w.writeHz)
		n := max(1, int(dur/interval))
		wp.updLat, wp.late = openLoop(time.Now(), interval, n, func(int) {
			wp.attempted++
			us, err := t.apply(upd.next())
			if err != nil {
				wp.fail("apply: %v", err)
				return
			}
			wp.addUpdate(us)
		}, func() {
			wp.pendingMax = max(wp.pendingMax, t.pendingReclaim())
		})
		writing.Store(false)
	}()
	p := sendQueries(t, w, reqs, chk, func(int) bool { return !writing.Load() })
	<-done
	p.merge(&wp)
	return p
}

// openLoop calls op n times on a fixed schedule, the i-th call due at
// start+i*interval whether or not earlier calls have returned. It
// returns each call's latency from its due time, which counts the wait
// a stall imposes on later calls, and how late each call was sent.
// after, if not nil, runs once each call's latency is taken.
func openLoop(start time.Time, interval time.Duration, n int, op func(i int), after func()) (lat, late []time.Duration) {
	lat = make([]time.Duration, 0, n)
	late = make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, time.Since(due))
		op(i)
		lat = append(lat, time.Since(due))
		if after != nil {
			after()
		}
	}
	return lat, late
}
