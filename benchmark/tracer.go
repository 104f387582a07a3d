package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rstknn/internal/storage"
)

// Span names: one per layer boundary the replica crosses.
const (
	spanQuery     = iota // rstknn.query: root of a query or batch request
	spanApply            // rstknn.apply: root of an update, writeMu wait included
	spanVectorize        // textual.vectorize: Tokenize + vocabulary lookup + Weigh
	spanRSTkNN           // core.RSTkNN
	spanMulti            // core.MultiRSTkNN
	spanUpdate           // iurtree.update: one Snapshot.Delete or Snapshot.Insert
	spanGet              // storage.get: one Blobs.GetTracked
	spanPut              // storage.put: one Blobs.PutTracked
	numSpans
)

var spanNames = [numSpans]string{
	"rstknn.query", "rstknn.apply", "textual.vectorize", "core.RSTkNN",
	"core.MultiRSTkNN", "iurtree.update", "storage.get", "storage.put",
}

// keepRequests is how many requests keep their spans for the trace
// file; every request is folded into the self-time totals.
const keepRequests = 256

type span struct {
	name       int
	parent     int // index into the request's spans, -1 for the root
	start, end int64
}

// request holds one traced request's spans. A request runs on one
// goroutine (the replica uses Workers:1), so its spans need no lock.
type request struct {
	id    int64
	spans []span
	cur   int
}

func (r *request) open(name int, now int64) int {
	r.spans = append(r.spans, span{name: name, parent: r.cur, start: now})
	r.cur = len(r.spans) - 1
	return r.cur
}

func (r *request) close(i int, now int64) {
	r.spans[i].end = now
	r.cur = r.spans[i].parent
}

// layerTotals is the self time and span count per span name, summed over
// the requests of one root kind.
type layerTotals struct {
	requests int64
	selfNs   [numSpans]int64
	spans    [numSpans]int64
}

// tracer records spans at each layer boundary the replica crosses. The
// storage decorator finds the request a call belongs to by the
// *storage.Tracker the caller passes, which is per query (or per batch,
// or per update) by the engine's design.
type tracer struct {
	epoch  time.Time
	live   sync.Map // *storage.Tracker -> *request
	nextID atomic.Int64

	mu     sync.Mutex
	totals [2]layerTotals // indexed by root span: spanQuery, spanApply
	kept   []*request
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a request's root span and routes storage calls charged to
// tr into it.
func (t *tracer) begin(root int, tr *storage.Tracker) *request {
	r := &request{id: t.nextID.Add(1), spans: make([]span, 0, 64), cur: -1}
	r.open(root, t.now())
	t.live.Store(tr, r)
	return r
}

// finish closes the root span and folds the request into the totals.
func (t *tracer) finish(r *request, tr *storage.Tracker) {
	r.close(0, t.now())
	t.live.Delete(tr)
	childSum := make([]int64, len(r.spans))
	for _, s := range r.spans[1:] {
		childSum[s.parent] += s.end - s.start
	}
	var self, count [numSpans]int64
	for i, s := range r.spans {
		self[s.name] += s.end - s.start - childSum[i]
		count[s.name]++
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tot := &t.totals[r.spans[0].name]
	tot.requests++
	for n := range self {
		tot.selfNs[n] += self[n]
		tot.spans[n] += count[n]
	}
	if len(t.kept) < keepRequests {
		t.kept = append(t.kept, r)
	}
}

// reset drops everything recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.totals = [2]layerTotals{}
	t.kept = nil
}

// totalsOf returns the totals of the requests with the given root span,
// spanQuery or spanApply.
func (t *tracer) totalsOf(root int) layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals[root]
}

func (t *tracer) lookup(tr *storage.Tracker) *request {
	if tr == nil {
		return nil
	}
	r, ok := t.live.Load(tr)
	if !ok {
		return nil
	}
	return r.(*request)
}

// writeFile writes the kept requests' spans as JSON.
func (t *tracer) writeFile(path, workload string) error {
	type jsonSpan struct {
		Name    string `json:"name"`
		Request int64  `json:"request"`
		Parent  int    `json:"parent"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	t.mu.Lock()
	var spans []jsonSpan
	for _, r := range t.kept {
		for _, s := range r.spans {
			spans = append(spans, jsonSpan{spanNames[s.name], r.id, s.parent, s.start, s.end})
		}
	}
	t.mu.Unlock()
	buf, err := json.Marshal(map[string]any{"workload": workload, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// tracedBlobs is a storage.Blobs decorator that records a span around
// every tracked read and write of a traced request. It adds no I/O and
// charges nothing itself, so Tracker counts stay those of the store.
type tracedBlobs struct {
	storage.Blobs
	t *tracer
}

func (b *tracedBlobs) GetTracked(id storage.NodeID, tr *storage.Tracker) ([]byte, error) {
	r := b.t.lookup(tr)
	if r == nil {
		return b.Blobs.GetTracked(id, tr)
	}
	i := r.open(spanGet, b.t.now())
	blob, err := b.Blobs.GetTracked(id, tr)
	r.close(i, b.t.now())
	return blob, err
}

func (b *tracedBlobs) PutTracked(data []byte, tr *storage.Tracker) storage.NodeID {
	r := b.t.lookup(tr)
	if r == nil {
		return b.Blobs.PutTracked(data, tr)
	}
	i := r.open(spanPut, b.t.now())
	id := b.Blobs.PutTracked(data, tr)
	r.close(i, b.t.now())
	return id
}
