package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rstknn"
)

// config is one run: one workload, one seed.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies the workload's object count: 1 on the command
	// line, less in the smoke test.
	scale float64
	// workdir receives the run's saved indexes and its trace file.
	workdir string
}

// system is the workload's engine.
type system struct {
	eng *rstknn.Engine
	// ref is an in-memory engine over the same objects; reference
	// answers come from its QueryCtx. It is eng itself unless eng was
	// reopened from disk.
	ref *rstknn.Engine
	// dir holds the saved index of a disk workload.
	dir string
}

// construct builds the workload's engine: Build, plus Save into dir and
// Open for a disk workload.
func construct(w workload, objs []rstknn.Object, dir string) (*system, error) {
	eng, err := rstknn.Build(objs, rstknn.Options{Workers: 1, BufferPoolPages: w.pool})
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	s := &system{eng: eng, ref: eng, dir: dir}
	if w.disk {
		if err := eng.Save(dir); err != nil {
			return nil, fmt.Errorf("save: %w", err)
		}
		if s.eng, err = rstknn.Open(dir); err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
	}
	return s, nil
}

func (s *system) close() { s.eng.Close() }

// timeSetup returns the median time of a construction. It runs after
// the measured phase: on the 2-vCPU VM the benchmark was sized on, the
// first second or so of a process runs measurably slower, which a 15 ms
// Build would absorb whole.
func timeSetup(w workload, objs []rstknn.Object, dir string) (time.Duration, error) {
	return medianTime(func() (time.Duration, error) {
		start := time.Now()
		s, err := construct(w, objs, dir)
		if err != nil {
			return 0, err
		}
		d := time.Since(start)
		s.close()
		return d, nil
	})
}

// timeOpen saves eng into dir and returns the median time of an Open
// of it.
func timeOpen(eng *rstknn.Engine, dir string) (time.Duration, error) {
	if err := eng.Save(dir); err != nil {
		return 0, fmt.Errorf("save: %w", err)
	}
	return medianTime(func() (time.Duration, error) {
		start := time.Now()
		e, err := rstknn.Open(dir)
		if err != nil {
			return 0, fmt.Errorf("open: %w", err)
		}
		d := time.Since(start)
		e.Close()
		return d, nil
	})
}

// medianTime calls f setupRepeats times, each after a full GC, and
// returns the median of the durations it measured.
func medianTime(f func() (time.Duration, error)) (time.Duration, error) {
	ds := make([]time.Duration, setupRepeats)
	for i := range ds {
		runtime.GC()
		var err error
		if ds[i], err = f(); err != nil {
			return 0, err
		}
	}
	return medianDuration(ds), nil
}

// oracleCheck compares QueryCtx with the exhaustive NaiveQuery on reqs,
// two at a time.
func oracleCheck(eng *rstknn.Engine, reqs []rstknn.QueryRequest) phase {
	var p phase
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				r := reqs[i]
				res, err := eng.QueryCtx(context.Background(), r.X, r.Y, r.Text, r.K)
				var want []int32
				if err == nil {
					want, err = eng.NaiveQuery(r.X, r.Y, r.Text, r.K)
				}
				mu.Lock()
				p.attempted++
				switch {
				case err != nil:
					p.fail("oracle check %d: %v", i, err)
				case !slices.Equal(res.IDs, want):
					p.fail("oracle check %d: QueryCtx has %d results, NaiveQuery %d", i, len(res.IDs), len(want))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return p
}

// medianRSSDuring runs f while sampling the resident set every 100 ms
// and returns the median sample in MB. It follows the heap goal the GC
// settles on under load, which on the 2-vCPU VM the benchmark was sized
// on spread 8-21% between runs, so it is a per-layer number.
func medianRSSDuring(f func()) float64 {
	stop := make(chan struct{})
	samples := make(chan []float64)
	go func() {
		var vs []float64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				samples <- vs
				return
			case <-tick.C:
				vs = append(vs, statusMB("VmRSS:"))
			}
		}
	}()
	f()
	close(stop)
	vs := <-samples
	if len(vs) == 0 {
		return statusMB("VmRSS:")
	}
	slices.Sort(vs)
	return vs[len(vs)/2]
}

// references answers reqs with QueryCtx on the reference engine.
func references(eng *rstknn.Engine, reqs []rstknn.QueryRequest) ([][]int32, error) {
	refs := make([][]int32, len(reqs))
	for i, r := range reqs {
		res, err := eng.QueryCtx(context.Background(), r.X, r.Y, r.Text, r.K)
		if err != nil {
			return nil, fmt.Errorf("reference query %d: %w", i, err)
		}
		refs[i] = res.IDs
	}
	return refs, nil
}

// run is everything one workload run measured.
type run struct {
	cfg  config
	in   inputs
	sys  *system
	main phase // untraced, measured through the public API
	// writes is the untraced phase the update-path metrics come from:
	// main for a churn workload, else a write probe (trace mode only).
	writes *phase
	trace  *tracedRun
	// checks holds the correctness checks outside the measured phases.
	checks phase
	// stats before and after the measured phase (I/O counters reset at
	// its start); mem0/mem1 and cpu0/cpu1 likewise.
	st0, st1   rstknn.IndexStats
	mem0, mem1 runtime.MemStats
	cpu0, cpu1 gcCPU
	// rssMB is the median resident set over the measured phase,
	// peakRSSMB the process's high-water mark at its end, and
	// engineHeapMB the heap the engines still hold after it.
	rssMB, peakRSSMB, engineHeapMB float64
	setup, open                    time.Duration
}

// tracedRun is the replica's measured phase with tracing on.
type tracedRun struct {
	phase
	// writes is the traced counterpart of run.writes.
	writes           *phase
	queries, updates layerTotals
}

// Read-only workloads probe the write path in trace mode, after their
// measured phases: probeUpdates open-loop Apply calls at probeHz with
// no reader running, once on the Engine and once on the replica.
const (
	probeUpdates = 32
	probeHz      = 100
)

func runWorkload(cfg config) (*run, error) {
	w := cfg.workload
	r := &run{cfg: cfg, in: makeInputs(w, cfg.seed, cfg.scale)}
	inputsMB := heapLiveMB()
	dir, err := os.MkdirTemp(cfg.workdir, "index-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if r.sys, err = construct(w, r.in.objects, filepath.Join(dir, "main")); err != nil {
		return nil, err
	}
	defer r.sys.close()

	refs, err := references(r.sys.ref, r.in.queries[:checkQueries])
	if err != nil {
		return nil, err
	}
	chk := checker{refs: refs}
	if w.writeHz == 0 {
		o := oracleCheck(r.sys.ref, r.in.queries[:w.naiveChecks])
		r.checks.merge(&o)
	}
	eng := engineTarget{r.sys.eng}
	warmEnd := time.Now().Add(time.Duration(cfg.seconds * warmupShare * float64(time.Second)))
	warm := sendQueries(eng, w, r.in.queries, chk, func(sent int) bool {
		return sent >= warmupQueries && !time.Now().Before(warmEnd)
	})
	r.checks.merge(&warm)

	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		dur /= 2
	}
	if w.writeHz > 0 {
		// The index moves under the writer: answers no longer match the
		// build-time references.
		chk = checker{}
	}
	r.sys.eng.ResetIOStats()
	r.st0 = r.sys.eng.Stats()
	// The runtime's CPU counters move at the end of a GC cycle: one
	// ending now starts them at the phase.
	runtime.GC()
	runtime.ReadMemStats(&r.mem0)
	r.cpu0 = readGCCPU()
	r.rssMB = medianRSSDuring(func() {
		r.main = runPhase(eng, w, r.in.queries, chk, newUpdateStream(r.in, cfg.seed+2), dur)
	})
	runtime.ReadMemStats(&r.mem1)
	r.cpu1 = readGCCPU()
	r.peakRSSMB = statusMB("VmHWM:")
	r.st1 = r.sys.eng.Stats()
	r.engineHeapMB = heapLiveMB() - inputsMB
	if r.setup, err = timeSetup(w, r.in.objects, filepath.Join(dir, "setup")); err != nil {
		return nil, err
	}
	if r.open, err = timeOpen(r.sys.ref, filepath.Join(dir, "open")); err != nil {
		return nil, err
	}
	if w.writeHz > 0 {
		r.checks.attempted++
		if err := r.sys.eng.CheckInvariants(); err != nil {
			r.checks.fail("invariants after churn: %v", err)
		}
		o := oracleCheck(r.sys.eng, r.in.queries[:w.naiveChecks])
		r.checks.merge(&o)
	}
	if cfg.trace {
		if err := r.runTraced(chk, dur); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// runTraced checks the replica against the Engine, then measures it
// with tracing on over the same request list, and probes the write path
// of a read-only workload on both.
func (r *run) runTraced(chk checker, dur time.Duration) error {
	w := r.cfg.workload
	tr := newTracer()
	rep, upd, err := r.checkReplica(tr)
	if err != nil {
		return err
	}
	defer rep.close()
	tr.reset()
	t := &tracedRun{phase: runPhase(rep, w, r.in.queries, chk, upd, dur)}
	r.writes, t.writes = &r.main, &t.phase
	if w.writeHz == 0 {
		// Both sides start from the same index and apply the same
		// updates, so their write counters must agree. On a disk
		// workload both append to the one index.log; each FileStore
		// reads only the records it wrote, and nothing reopens the file.
		probe := workload{name: w.name, writeHz: probeHz}
		probeDur := time.Duration(probeUpdates) * time.Second / probeHz
		seed := r.cfg.seed + 4
		p := runPhase(engineTarget{r.sys.eng}, probe, nil, checker{}, newUpdateStream(r.in, seed), probeDur)
		tp := runPhase(rep, probe, nil, checker{}, newUpdateStream(r.in, seed), probeDur)
		r.writes, t.writes = &p, &tp
		r.checks.attempted++
		if p.writes != tp.writes || p.pagesWritten != tp.pagesWritten || p.retire != tp.retire {
			r.checks.fail("replica write probe: writes %d pages %d retired %d, engine %d %d %d",
				tp.writes, tp.pagesWritten, tp.retire, p.writes, p.pagesWritten, p.retire)
		}
	}
	t.queries, t.updates = tr.totalsOf(spanQuery), tr.totalsOf(spanApply)
	r.trace = t
	return tr.writeFile(filepath.Join(r.cfg.workdir, "trace-"+w.name+".json"), w.name)
}

// replicaUpdates is how many updates both sides apply before the churn
// workload's replica check.
const replicaUpdates = 16

// checkReplica builds the traced replica of the workload's engine and
// holds it to the Engine: identical results, NodesRead and PageAccesses
// for the check requests, sent one call at a time so the buffer pool
// evolves identically on both. Mismatches count as failed checks. For
// the churn workload both sides start fresh and first apply the same
// updates; the returned stream continues the replica's.
func (r *run) checkReplica(tr *tracer) (*replica, *updateStream, error) {
	w := r.cfg.workload
	eng := r.sys.eng
	var rep *replica
	var err error
	if w.disk {
		rep, err = openReplica(r.sys.dir, tr)
	} else {
		rep, err = buildReplica(r.in.objects, w.pool, tr)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("replica: %w", err)
	}
	eng.DropCache()
	rep.store.DropCache()
	p := &r.checks
	upd := newUpdateStream(r.in, r.cfg.seed+3)
	if w.writeHz > 0 {
		if eng, err = rstknn.Build(r.in.objects, rstknn.Options{Workers: 1}); err != nil {
			rep.close()
			return nil, nil, err
		}
		engUpd := newUpdateStream(r.in, r.cfg.seed+3)
		for i := 0; i < replicaUpdates; i++ {
			p.attempted++
			want, err1 := eng.Apply(engUpd.next())
			got, err2 := rep.apply(upd.next())
			switch {
			case err1 != nil || err2 != nil:
				p.fail("replica update %d: engine %v, replica %v", i, err1, err2)
			case want.Writes != got.Writes || want.Retired != got.Retired:
				p.fail("replica update %d: writes %d/%d retired %d/%d", i, got.Writes, want.Writes, got.Retired, want.Retired)
			}
		}
	}
	reqs := r.in.queries[:checkQueries]
	if w.batch > 0 {
		for i := 0; i+w.batch <= len(reqs); i += w.batch {
			p.attempted++
			want, wbs := eng.BatchQueryStatsCtx(context.Background(), reqs[i:i+w.batch], 1)
			got, gbs := rep.batch(reqs[i : i+w.batch])
			if wbs.NodesRead != gbs.NodesRead || wbs.SharedHits != gbs.SharedHits || wbs.PageAccesses != gbs.PageAccesses {
				p.fail("replica batch at %d: stats %+v, engine %+v", i, gbs, wbs)
			}
			for j := range want {
				compareAnswers(p, i+j, want[j].Result, want[j].Err, got[j].Result, got[j].Err)
			}
		}
		return rep, upd, nil
	}
	for i, q := range reqs {
		p.attempted++
		want, err1 := engineTarget{eng}.query(q)
		got, err2 := rep.query(q)
		compareAnswers(p, i, want, err1, got, err2)
	}
	return rep, upd, nil
}

func compareAnswers(p *phase, i int, want *rstknn.Result, werr error, got *rstknn.Result, gerr error) {
	switch {
	case werr != nil || gerr != nil:
		p.fail("replica query %d: engine %v, replica %v", i, werr, gerr)
	case !slices.Equal(want.IDs, got.IDs):
		p.fail("replica query %d: %d results, engine %d", i, len(got.IDs), len(want.IDs))
	case want.Stats.NodesRead != got.Stats.NodesRead || want.Stats.PageAccesses != got.Stats.PageAccesses:
		p.fail("replica query %d: nodes %d pages %d, engine nodes %d pages %d", i,
			got.Stats.NodesRead, got.Stats.PageAccesses, want.Stats.NodesRead, want.Stats.PageAccesses)
	}
}
