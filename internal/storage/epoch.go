package storage

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Epoch-based reclamation for copy-on-write snapshots.
//
// The write path never mutates a published node: an update Puts fresh
// blobs for the copied root-to-leaf path and the superseded blobs become
// garbage — but a reader that pinned the previous snapshot may still be
// traversing them. The Reclaimer defers the actual Free until no such
// reader can exist:
//
//   - a reader calls Pin *before* loading the snapshot pointer and
//     Release when its query finishes;
//   - a writer publishes the new snapshot pointer first, then hands the
//     superseded NodeIDs to Retire, which tags them with the current
//     epoch and advances it;
//   - a retired batch is freed once every reader pinned at-or-before the
//     batch's epoch has released.
//
// The ordering argument: a batch retired at epoch E contains only nodes
// unreachable from the snapshot published before the Retire call. Any
// reader pinned after that publication loads the new pointer (Pin
// happens-before the pointer load), so it never visits the batch; any
// reader that might visit it pinned at an epoch <= E and blocks the free
// until it releases. Epochs only advance, so the minimum pinned epoch is
// a safe frontier.
//
// Versions writes both halves of that protocol once: its Read pins
// before the load and releases in a defer, and its Write publishes
// before it retires. A structure published through Versions cannot be
// reached any other way.

// PinToken identifies one reader's pinned epoch; pass it back to
// Release.
type PinToken struct {
	epoch int64
}

// ReclaimStats describes the reclamation state of a Reclaimer.
type ReclaimStats struct {
	// Pending is the number of retired nodes awaiting a safe Free.
	Pending int
	// Freed is the total number of nodes reclaimed so far.
	Freed int64
	// Pins is the number of currently pinned readers.
	Pins int
}

// Reclaimer defers Free of retired nodes until no pinned reader can
// reference them. All methods are safe for concurrent use; Retire calls
// are typically serialized by the caller's writer lock but do not have
// to be.
type Reclaimer struct {
	store Blobs

	mu      sync.Mutex
	epoch   int64
	pins    map[int64]int // epoch -> active readers pinned at it
	batches []retiredBatch
	pending int
	freed   int64
	onFree  func(NodeID)
}

type retiredBatch struct {
	epoch int64
	ids   []NodeID
}

// NewReclaimer returns a Reclaimer freeing into the given store.
func NewReclaimer(store Blobs) *Reclaimer {
	return &Reclaimer{store: store, pins: make(map[int64]int)}
}

// SetOnFree installs a hook invoked for every node just before it is
// freed — the engine uses it to drop bound-cache entries so a recycled
// NodeID can never serve a stale decode. Call it before any
// concurrent use.
func (r *Reclaimer) SetOnFree(hook func(NodeID)) {
	r.mu.Lock()
	r.onFree = hook
	r.mu.Unlock()
}

// Pin registers a reader at the current epoch. It must be called BEFORE
// the reader loads the snapshot pointer; the returned token goes to
// Release when the reader is done.
func (r *Reclaimer) Pin() PinToken {
	r.mu.Lock()
	e := r.epoch
	r.pins[e]++
	r.mu.Unlock()
	return PinToken{epoch: e}
}

// Release ends a reader's pin and frees any batches that became safe.
func (r *Reclaimer) Release(t PinToken) {
	r.mu.Lock()
	if n := r.pins[t.epoch]; n <= 1 {
		delete(r.pins, t.epoch)
	} else {
		r.pins[t.epoch] = n - 1
	}
	freeable := r.collectLocked()
	r.mu.Unlock()
	r.freeBatches(freeable)
}

// Retire queues the superseded nodes for reclamation, tagging them with
// the current epoch and advancing it. Call it only AFTER the snapshot
// that no longer references the nodes has been published.
func (r *Reclaimer) Retire(ids []NodeID) {
	if len(ids) == 0 {
		return
	}
	for _, id := range ids {
		r.store.Retire(id)
	}
	r.mu.Lock()
	r.batches = append(r.batches, retiredBatch{epoch: r.epoch, ids: ids})
	r.pending += len(ids)
	r.epoch++
	freeable := r.collectLocked()
	r.mu.Unlock()
	r.freeBatches(freeable)
}

// TryFree frees every batch that is already safe (e.g. from a
// maintenance path) and returns the number of nodes reclaimed.
func (r *Reclaimer) TryFree() int {
	r.mu.Lock()
	freeable := r.collectLocked()
	r.mu.Unlock()
	n := 0
	for _, b := range freeable {
		n += len(b.ids)
	}
	r.freeBatches(freeable)
	return n
}

// Stats returns a snapshot of the reclamation counters.
func (r *Reclaimer) Stats() ReclaimStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	pins := 0
	for _, n := range r.pins {
		pins += n
	}
	return ReclaimStats{Pending: r.pending, Freed: r.freed, Pins: pins}
}

// collectLocked detaches every batch older than the minimum pinned
// epoch. Caller holds r.mu; the actual Free happens outside the lock so
// the store and cache hooks never nest under it.
func (r *Reclaimer) collectLocked() []retiredBatch {
	min := r.epoch // no pins: everything retired so far is safe
	for e := range r.pins {
		if e < min {
			min = e
		}
	}
	cut := 0
	for cut < len(r.batches) && r.batches[cut].epoch < min {
		cut++
	}
	if cut == 0 {
		return nil
	}
	freeable := r.batches[:cut:cut]
	r.batches = r.batches[cut:]
	for _, b := range freeable {
		r.pending -= len(b.ids)
		r.freed += int64(len(b.ids))
	}
	return freeable
}

// freeBatches drops cache entries and frees the slots of the detached
// batches. Double frees cannot happen: collectLocked hands each batch
// out exactly once.
func (r *Reclaimer) freeBatches(batches []retiredBatch) {
	if len(batches) == 0 {
		return
	}
	r.mu.Lock()
	hook := r.onFree
	r.mu.Unlock()
	for _, b := range batches {
		for _, id := range b.ids {
			if hook != nil {
				hook(id)
			}
			// Free only fails on a double free, which collectLocked's
			// hand-out-once contract rules out.
			_ = r.store.Free(id) //rstknn:allow errlost double free is structurally impossible here
		}
	}
}

// Versions publishes the immutable versions of a copy-on-write
// structure whose nodes live in a store. Readers see the current version
// only inside Read, pinned for the call; writers serialize in Write,
// which publishes the successor and only then retires the nodes it
// superseded. All methods are safe for concurrent use.
type Versions[T any] struct {
	cur atomic.Pointer[T]
	mu  sync.Mutex // serializes writers
	rec *Reclaimer
}

// errRetireUnpublished is Write's answer to a writer that retires nodes
// without publishing a successor: the current version may still reach
// them.
var errRetireUnpublished = errors.New("storage: retired nodes without publishing a successor")

// NewVersions publishes first as the current version. Retired nodes are
// freed into store, and onFree (if non-nil) runs for each just before
// its Free.
func NewVersions[T any](store Blobs, first *T, onFree func(NodeID)) *Versions[T] {
	v := &Versions[T]{rec: NewReclaimer(store)}
	v.rec.SetOnFree(onFree)
	v.cur.Store(first)
	return v
}

// Read runs fn on the current version. No node reachable from it is
// freed until fn returns; fn must not keep the pointer past that.
func (v *Versions[T]) Read(fn func(*T) error) error {
	tok := v.rec.Pin()
	defer v.rec.Release(tok)
	return fn(v.cur.Load())
}

// Write runs fn on the current version under the writer lock, so fn
// must not call Write. When fn returns a successor and no error, Write
// publishes the successor and then retires the nodes fn superseded. A
// nil successor or an error publishes nothing, and then fn must retire
// nothing.
func (v *Versions[T]) Write(fn func(cur *T) (next *T, retired []NodeID, err error)) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	// Only writers retire, and they hold mu: the loaded version cannot
	// be reclaimed while fn runs, so it needs no pin.
	next, retired, err := fn(v.cur.Load())
	if err != nil {
		return err
	}
	if next == nil {
		if len(retired) > 0 {
			return errRetireUnpublished
		}
		return nil
	}
	v.cur.Store(next)
	v.rec.Retire(retired)
	return nil
}

// Stats returns the reclamation counters.
func (v *Versions[T]) Stats() ReclaimStats { return v.rec.Stats() }

// TryFree frees every retired node no reader can reach anymore and
// returns how many were freed.
func (v *Versions[T]) TryFree() int { return v.rec.TryFree() }
