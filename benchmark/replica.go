package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rstknn"
	"rstknn/internal/core"
	"rstknn/internal/dataset"
	"rstknn/internal/geom"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
	"rstknn/internal/textual"
	"rstknn/internal/vector"
)

// replica is an Engine rebuilt from the exported functions of each
// layer, mirroring engine.go (Build), persist.go (Open), query.go
// (QueryCtx, the shared-traversal BatchQuery path) and mutate.go
// (Apply) for the options the workloads use: defaults plus Workers:1
// and an optional buffer pool. Its store is wrapped in tracedBlobs, and
// it opens a span around each call into textual, core and iurtree, so a
// traced run can split wall time by layer. The equality check in
// checkReplica holds it to the Engine's results and I/O counters.
type replica struct {
	alpha   float64
	measure vector.TextSim
	scheme  textual.Scheme
	vocab   *textual.Vocabulary
	store   *tracedBlobs
	rec     *storage.Reclaimer
	tr      *tracer

	state   atomic.Pointer[replicaState]
	writeMu sync.Mutex
}

type replicaState struct {
	tree    *iurtree.Snapshot
	objects []iurtree.Object
	byID    map[int32]int
}

func storeOptions(pageSize, pool int) []storage.Option {
	opts := []storage.Option{storage.WithPageSize(pageSize)}
	if pool > 0 {
		opts = append(opts, storage.WithBufferPool(pool))
	}
	return opts
}

// buildReplica mirrors rstknn.Build for an IUR-tree with default options.
func buildReplica(objects []rstknn.Object, pool int, tr *tracer) (*replica, error) {
	p := &replica{alpha: alpha, measure: vector.ByName("ej"), scheme: textual.TFIDF, tr: tr}
	corpus := textual.NewCorpus(p.scheme)
	for _, o := range objects {
		corpus.Add(o.Text)
	}
	p.vocab = corpus.Vocab
	docs := corpus.Vectors()
	objs := make([]iurtree.Object, len(objects))
	byID := make(map[int32]int, len(objects))
	for i, o := range objects {
		byID[o.ID] = i
		objs[i] = iurtree.Object{ID: o.ID, Loc: geom.Point{X: o.X, Y: o.Y}, Doc: docs[i]}
	}
	p.store = &tracedBlobs{Blobs: storage.NewStore(storeOptions(storage.DefaultPageSize, pool)...), t: tr}
	tree, err := iurtree.Build(objs, iurtree.Config{Store: p.store})
	if err != nil {
		return nil, err
	}
	p.publishFirst(tree, objs, byID)
	return p, nil
}

// openReplica mirrors rstknn.Open on a directory written by Engine.Save.
func openReplica(dir string, tr *tracer) (*replica, error) {
	buf, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, err
	}
	var meta struct {
		Options  rstknn.Options `json:"options"`
		HeaderID int32          `json:"header_id"`
	}
	if err := json.Unmarshal(buf, &meta); err != nil {
		return nil, fmt.Errorf("parsing meta.json: %w", err)
	}
	opt := meta.Options
	vf, err := os.Open(filepath.Join(dir, "vocab.csv"))
	if err != nil {
		return nil, err
	}
	vocab, err := textual.LoadVocabulary(vf)
	vf.Close()
	if err != nil {
		return nil, err
	}
	objs, err := dataset.LoadFile(filepath.Join(dir, "objects.csv"), vocab)
	if err != nil {
		return nil, err
	}
	scheme, err := textual.SchemeByName(opt.Weighting)
	if err != nil {
		return nil, err
	}
	fs, err := storage.OpenFileStore(filepath.Join(dir, "index.log"), storeOptions(opt.PageSize, opt.BufferPoolPages)...)
	if err != nil {
		return nil, err
	}
	p := &replica{alpha: opt.Alpha, measure: vector.ByName(opt.Measure), scheme: scheme, vocab: vocab, tr: tr}
	p.store = &tracedBlobs{Blobs: fs, t: tr}
	tree, err := iurtree.Open(p.store, storage.NodeID(meta.HeaderID))
	if err != nil {
		fs.Close()
		return nil, err
	}
	fs.Retire(storage.NodeID(meta.HeaderID))
	if err := fs.Free(storage.NodeID(meta.HeaderID)); err != nil {
		fs.Close()
		return nil, err
	}
	fs.ResetStats()
	byID := make(map[int32]int, len(objs))
	for i := range objs {
		byID[objs[i].ID] = i
	}
	p.publishFirst(tree, objs, byID)
	return p, nil
}

func (p *replica) publishFirst(tree *iurtree.Snapshot, objs []iurtree.Object, byID map[int32]int) {
	p.rec = storage.NewReclaimer(p.store)
	p.rec.SetOnFree(tree.InvalidateNode)
	p.state.Store(&replicaState{tree: tree, objects: objs, byID: byID})
}

func (p *replica) close() error {
	if fs, ok := p.store.Blobs.(*storage.FileStore); ok {
		return fs.Close()
	}
	return nil
}

// vectorize mirrors Engine.vectorize inside a textual.vectorize span.
func (p *replica) vectorize(r *request, text string) vector.Vector {
	s := r.open(spanVectorize, p.tr.now())
	counts := make(map[vector.TermID]int)
	for _, tok := range textual.Tokenize(text) {
		if id, ok := p.vocab.Lookup(tok); ok {
			counts[id]++
		}
	}
	doc := textual.Weigh(counts, p.scheme, p.vocab)
	r.close(s, p.tr.now())
	return doc
}

func (p *replica) pin() (*replicaState, func()) {
	tok := p.rec.Pin()
	st := p.state.Load()
	return st, func() { p.rec.Release(tok) }
}

func (p *replica) coreOptions(k int, tr *storage.Tracker) core.Options {
	return core.Options{
		K:        k,
		Alpha:    p.alpha,
		Sim:      p.measure,
		Strategy: core.RefineByMaxUpper,
		Workers:  1,
		Ctx:      context.Background(),
		Tracker:  tr,
	}
}

func queryStats(m core.Metrics, tr *storage.Tracker, d time.Duration) rstknn.QueryStats {
	return rstknn.QueryStats{
		Duration:      d,
		NodesRead:     m.NodesRead,
		PageAccesses:  tr.PagesRead(),
		CacheHits:     tr.CacheHits(),
		SharedReads:   tr.SharedReads(),
		ExactSims:     m.ExactSims,
		BoundEvals:    m.BoundEvals,
		GroupPruned:   m.GroupPruned,
		GroupReported: m.GroupReported,
		Candidates:    m.Candidates,
		Refinements:   m.Refinements,
	}
}

// query mirrors Engine.QueryCtx.
func (p *replica) query(q rstknn.QueryRequest) (*rstknn.Result, error) {
	var tracker storage.Tracker
	r := p.tr.begin(spanQuery, &tracker)
	defer p.tr.finish(r, &tracker)
	doc := p.vectorize(r, q.Text)
	st, release := p.pin()
	defer release()
	start := time.Now()
	s := r.open(spanRSTkNN, p.tr.now())
	out, err := core.RSTkNN(st.tree, core.Query{Loc: geom.Point{X: q.X, Y: q.Y}, Doc: doc}, p.coreOptions(q.K, &tracker))
	r.close(s, p.tr.now())
	if err != nil {
		return nil, err
	}
	return &rstknn.Result{IDs: out.Results, Stats: queryStats(out.Metrics, &tracker, time.Since(start))}, nil
}

// batch mirrors Engine.BatchQueryStatsCtx on its shared-traversal path
// with parallelism 1.
func (p *replica) batch(reqs []rstknn.QueryRequest) ([]rstknn.BatchResult, rstknn.BatchStats) {
	var batchTracker storage.Tracker
	r := p.tr.begin(spanQuery, &batchTracker)
	defer p.tr.finish(r, &batchTracker)
	st, release := p.pin()
	defer release()
	begin := time.Now()
	out := make([]rstknn.BatchResult, len(reqs))
	bs := rstknn.BatchStats{Requests: len(reqs), Shared: true}
	items := make([]core.BatchItem, len(reqs))
	trackers := make([]storage.Tracker, len(reqs))
	for i, q := range reqs {
		items[i] = core.BatchItem{Query: core.Query{Loc: geom.Point{X: q.X, Y: q.Y}, Doc: p.vectorize(r, q.Text)}, K: q.K, Tracker: &trackers[i]}
	}
	start := time.Now()
	s := r.open(spanMulti, p.tr.now())
	mo, err := core.MultiRSTkNN(st.tree, items, p.coreOptions(0, &batchTracker))
	r.close(s, p.tr.now())
	if err != nil {
		for i := range out {
			out[i] = rstknn.BatchResult{Err: err}
		}
		return out, bs
	}
	elapsed := time.Since(start)
	for i, o := range mo.Outcomes {
		out[i] = rstknn.BatchResult{Result: &rstknn.Result{IDs: o.Results, Stats: queryStats(o.Metrics, &trackers[i], elapsed)}}
	}
	bs.NodesRead = mo.Batch.NodesRead
	bs.SharedHits = mo.Batch.SharedHits
	bs.PageAccesses = batchTracker.PagesRead()
	bs.Duration = time.Since(begin)
	bs.NodesReadPerQuery = float64(bs.NodesRead) / float64(len(reqs))
	return out, bs
}

// apply mirrors Engine.Apply. Its root span opens before writeMu, so
// the lock wait counts as apply overhead.
func (p *replica) apply(b rstknn.Batch) (*rstknn.UpdateStats, error) {
	var tracker storage.Tracker
	r := p.tr.begin(spanApply, &tracker)
	defer p.tr.finish(r, &tracker)
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	start := time.Now()
	cur := p.state.Load()
	deleting := make(map[int32]bool, len(b.Delete))
	for _, id := range b.Delete {
		deleting[id] = true
	}
	pending := make(map[int32]bool, len(b.Insert))
	for _, o := range b.Insert {
		if _, exists := cur.byID[o.ID]; pending[o.ID] || (exists && !deleting[o.ID]) {
			return nil, fmt.Errorf("duplicate object ID %d", o.ID)
		}
		pending[o.ID] = true
	}
	var retired []storage.NodeID
	tree := cur.tree
	objects := make([]iurtree.Object, len(cur.objects))
	copy(objects, cur.objects)
	byID := make(map[int32]int, len(objects)+len(b.Insert))
	for i := range objects {
		byID[objects[i].ID] = i
	}
	for _, id := range b.Delete {
		i, ok := byID[id]
		if !ok {
			continue
		}
		s := r.open(spanUpdate, p.tr.now())
		next, rets, found, err := tree.Delete(id, objects[i].Loc, &tracker)
		r.close(s, p.tr.now())
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, fmt.Errorf("object %d in table but not in tree", id)
		}
		tree = next
		retired = append(retired, rets...)
		last := len(objects) - 1
		objects[i] = objects[last]
		objects = objects[:last]
		delete(byID, id)
		if i < len(objects) {
			byID[objects[i].ID] = i
		}
	}
	for _, o := range b.Insert {
		io := iurtree.Object{ID: o.ID, Loc: geom.Point{X: o.X, Y: o.Y}, Doc: p.vectorize(r, o.Text)}
		s := r.open(spanUpdate, p.tr.now())
		next, rets, err := tree.Insert(io, &tracker)
		r.close(s, p.tr.now())
		if err != nil {
			return nil, err
		}
		tree = next
		retired = append(retired, rets...)
		objects = append(objects, io)
		byID[io.ID] = len(objects) - 1
	}
	p.state.Store(&replicaState{tree: tree, objects: objects, byID: byID})
	p.rec.Retire(retired)
	return &rstknn.UpdateStats{
		Duration:     time.Since(start),
		Writes:       tracker.Writes(),
		PagesWritten: tracker.PagesWritten(),
		Reads:        tracker.Reads(),
		PagesRead:    tracker.PagesRead(),
		Retired:      len(retired),
	}, nil
}

func (p *replica) pendingReclaim() int { return p.rec.Stats().Pending }
