// Package rstknn is a Go implementation of reverse spatial and textual
// k nearest neighbor (RSTkNN) search — the query, index structures, and
// algorithms of "Reverse spatial and textual k nearest neighbor search"
// (Lu, Lu, Cong — SIGMOD 2011).
//
// Given a collection of geo-textual objects (a location plus a text
// description), an RSTkNN query asks: for a new object q, which existing
// objects would rank q within their top-k most similar objects, where
// similarity blends spatial proximity and textual relevance?
//
//	SimST(o, q) = alpha * (1 - dist(o,q)/maxD) + (1-alpha) * SimT(o.text, q.text)
//
// The package builds a disk-resident IUR-tree (an R-tree whose nodes
// carry per-subtree intersection/union term vectors and object counts) or
// its cluster-enhanced CIUR variant, and answers queries with the paper's
// branch-and-bound search driven by contribution lists.
//
// Quick start:
//
//	objects := []rstknn.Object{
//	    {ID: 1, X: 3, Y: 4, Text: "sushi seafood"},
//	    {ID: 2, X: 8, Y: 1, Text: "noodles ramen"},
//	}
//	eng, err := rstknn.Build(objects, rstknn.Options{Alpha: 0.5})
//	...
//	res, err := eng.Query(5, 5, "sushi bar", 2)
//	// res.IDs lists the objects that would see the query in their top-2.
package rstknn

import (
	"errors"
	"fmt"
	"time"

	"rstknn/internal/cluster"
	"rstknn/internal/geom"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
	"rstknn/internal/textual"
	"rstknn/internal/vector"
)

// Engine is an RSTkNN index over one object collection.
//
// The engine follows a copy-on-write snapshot architecture. Every query
// pins the current immutable snapshot for its lifetime, so any number of
// readers — Query, QueryVector, QueryByID, TopK, Influence, NaiveQuery,
// BatchQuery, their Ctx variants, and the stats accessors — may run
// concurrently with each other AND with the write path. Insert, Delete,
// and Apply never mutate a published tree node: they path-copy fresh
// nodes, atomically swap in the successor snapshot, and hand the
// superseded nodes to an epoch-based reclaimer that frees them only once
// no pinned reader can still reach them. Writers serialize among
// themselves on an internal mutex. Each query charges its simulated I/O
// to its own storage.Tracker, so the QueryStats it returns are exact
// even under concurrent load. Save and Close are safe against concurrent
// queries but not against each other.
type Engine struct {
	opt     Options
	scheme  textual.Scheme
	measure vector.TextSim
	vocab   *textual.Vocabulary
	store   *storage.Store
	log     *storage.FileStore // the index.log an Open engine reads; nil when built
	build   time.Duration

	// snap publishes the engine's states: queries read the current one
	// through snap.Read, updates and Save go through snap.Write.
	snap *storage.Versions[engineState]
}

// engineState is one immutable version of the engine: the tree snapshot
// plus the object table that mirrors it. A published state is never
// mutated — the write path builds a successor and swaps the pointer.
type engineState struct {
	tree    *iurtree.Snapshot
	objects []iurtree.Object
	byID    map[int32]int
}

// Build indexes the objects and returns a ready Engine.
func Build(objects []Object, opt Options) (*Engine, error) {
	resolved, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	scheme, _ := textual.SchemeByName(resolved.Weighting)
	e := &Engine{
		opt:     resolved,
		scheme:  scheme,
		measure: vector.ByName(resolved.Measure),
	}

	start := time.Now()
	corpus := textual.NewCorpus(scheme)
	for _, o := range objects {
		corpus.Add(o.Text)
	}
	e.vocab = corpus.Vocab
	docs := corpus.Vectors()
	objs := make([]iurtree.Object, len(objects))
	byID := make(map[int32]int, len(objects))
	for i, o := range objects {
		if _, dup := byID[o.ID]; dup {
			return nil, fmt.Errorf("rstknn: duplicate object ID %d", o.ID)
		}
		byID[o.ID] = i
		objs[i] = iurtree.Object{
			ID:  o.ID,
			Loc: geom.Point{X: o.X, Y: o.Y},
			Doc: docs[i],
		}
	}

	var storeOpts []storage.Option
	storeOpts = append(storeOpts, storage.WithPageSize(resolved.PageSize))
	if resolved.BufferPoolPages > 0 {
		storeOpts = append(storeOpts, storage.WithBufferPool(resolved.BufferPoolPages))
	}
	e.store = storage.NewStore(storeOpts...)

	cfg := iurtree.Config{Store: e.store}
	if resolved.Index == CIUR {
		cfg.Clustering = cluster.Run(docs, cluster.Config{
			K:                resolved.Clusters,
			Seed:             resolved.Seed,
			OutlierThreshold: resolved.OutlierThreshold,
		})
	}
	tree, err := iurtree.Build(objs, cfg)
	if err != nil {
		return nil, err
	}
	// Successor snapshots share the bound cache with the first one, so
	// evicting through it covers every version.
	e.snap = storage.NewVersions(e.store, &engineState{tree: tree, objects: objs, byID: byID}, tree.InvalidateNode)
	e.build = time.Since(start)
	return e, nil
}

// vectorize weighs free text against the engine's corpus statistics.
// Unseen terms get the maximum IDF: they never match any indexed object
// anyway, but keep the query's norm honest.
func (e *Engine) vectorize(text string) vector.Vector {
	counts := make(map[vector.TermID]int)
	for _, tok := range textual.Tokenize(text) {
		if id, ok := e.vocab.Lookup(tok); ok {
			counts[id]++
		}
	}
	return textual.Weigh(counts, e.scheme, e.vocab)
}

// IndexStats describes the index at the moment of the call.
type IndexStats struct {
	Objects int
	Height  int
	Nodes   int64 // stored node blobs (live plus retired, awaiting reclaim)
	Pages   int64 // simulated disk pages, including retired garbage
	Bytes   int64
	// LivePages/LiveBytes exclude retired-but-not-yet-freed nodes: the
	// footprint the index would have after full reclamation.
	LivePages int64
	LiveBytes int64
	// Writes/PagesWritten count the blob writes of Build plus every
	// Insert/Delete/Apply since (or since ResetIOStats).
	Writes       int64
	PagesWritten int64
	// PendingReclaim is the number of retired nodes still waiting for
	// pinned readers to finish.
	PendingReclaim int
	// BoundCacheHits/Misses/Entries describe the bound cache of decoded
	// nodes that queries read, which every engine runs with
	// iurtree.DefaultBoundCacheNodes entries. Hits re-decode
	// nothing but still pay full simulated I/O, so they appear nowhere
	// in the I/O counters.
	BoundCacheHits    int64
	BoundCacheMisses  int64
	BoundCacheEntries int
	// BufferPoolHits/Misses split the engine-wide node reads by whether
	// the buffer pool served them: misses paid
	// simulated page I/O, hits did not. Both are zero-history counters
	// since Build (or ResetIOStats).
	BufferPoolHits   int64
	BufferPoolMisses int64
	Clusters         int // 0 for IUR
	BuildTime        time.Duration
	VocabSize        int
	Kind             IndexKind
	MaxDistance      float64
}

// Stats returns the index statistics.
func (e *Engine) Stats() (out IndexStats) {
	_ = e.snap.Read(func(st *engineState) error {
		ioStats := e.store.Stats()
		out = IndexStats{
			Objects:        st.tree.Len(),
			Height:         st.tree.Height(),
			Nodes:          int64(e.store.Len()),
			Pages:          e.store.TotalPages(),
			Bytes:          e.store.TotalBytes(),
			LivePages:      e.store.LivePages(),
			LiveBytes:      e.store.LiveBytes(),
			Writes:         ioStats.Writes,
			PagesWritten:   ioStats.PagesWritten,
			PendingReclaim: e.snap.Stats().Pending,
			Clusters:       st.tree.NumClusters(),
			BuildTime:      e.build,
			VocabSize:      e.vocab.Size(),
			Kind:           e.opt.Index,
			MaxDistance:    st.tree.MaxD(),
		}
		bc := st.tree.BoundCacheStats()
		out.BoundCacheHits = bc.Hits
		out.BoundCacheMisses = bc.Misses
		out.BoundCacheEntries = bc.Entries
		out.BufferPoolHits = ioStats.CacheHits
		out.BufferPoolMisses = ioStats.Reads
		return nil
	})
	return out
}

// ratio returns hits/(hits+misses), or 0 when nothing was counted.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// BufferPoolHitRatio returns the fraction of node reads served without
// simulated page I/O — BufferPoolHits/(BufferPoolHits+BufferPoolMisses)
// — or 0 when no reads happened.
func (s IndexStats) BufferPoolHitRatio() float64 {
	return ratio(s.BufferPoolHits, s.BufferPoolMisses)
}

// BoundCacheHitRatio returns the fraction of query node decodes the
// bound cache absorbed — BoundCacheHits/(BoundCacheHits+BoundCacheMisses)
// — or 0 when the cache was never consulted.
func (s IndexStats) BoundCacheHitRatio() float64 {
	return ratio(s.BoundCacheHits, s.BoundCacheMisses)
}

// Alpha returns the engine's spatial/textual weight.
func (e *Engine) Alpha() float64 { return e.opt.Alpha }

// Len returns the number of indexed objects.
func (e *Engine) Len() (n int) {
	_ = e.snap.Read(func(st *engineState) error {
		n = st.tree.Len()
		return nil
	})
	return n
}

// ObjectByID returns the indexed object's location and text vector, or an
// error when the ID is unknown.
func (e *Engine) ObjectByID(id int32) (x, y float64, doc vector.Vector, err error) {
	err = e.snap.Read(func(st *engineState) error {
		i, ok := st.byID[id]
		if !ok {
			return errors.New("rstknn: unknown object ID")
		}
		o := st.objects[i]
		x, y, doc = o.Loc.X, o.Loc.Y, o.Doc
		return nil
	})
	return x, y, doc, err
}

// ResetIOStats zeroes the simulated I/O counters (e.g. to measure cold
// queries after a build).
func (e *Engine) ResetIOStats() { e.store.ResetStats() }

// DropCache empties the buffer pool (if configured), so the next read
// of every node is charged as a page read. Decoded nodes stay cached,
// so the next queries are cold in the paper's I/O counters but not in
// CPU time or in reads of index.log.
func (e *Engine) DropCache() { e.store.DropCache() }
