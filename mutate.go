package rstknn

import (
	"fmt"
	"time"

	"rstknn/internal/geom"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
)

// ErrClustered is returned by Insert, Delete, and Apply on CIUR engines:
// the per-cluster envelopes depend on an offline clustering that a
// single update cannot meaningfully extend. Rebuild the index in the
// background and swap the fresh engine in.
var ErrClustered = iurtree.ErrClustered

// UpdateStats describes the cost of one Insert, Delete, or Apply under
// the simulated I/O model. The counters come from the update's own
// tracker, so they are exact even with queries running concurrently.
type UpdateStats struct {
	Duration time.Duration
	// Writes/PagesWritten count the fresh node blobs the path copy
	// persisted.
	Writes       int64
	PagesWritten int64
	// Reads/PagesRead count the root-to-leaf descent.
	Reads     int64
	PagesRead int64
	// Retired is the number of superseded nodes handed to the
	// reclaimer; they are freed once no pinned reader can reach them.
	Retired int
}

// Batch groups deletions and insertions into one atomic snapshot swap.
type Batch struct {
	Insert []Object
	Delete []int32
}

// update runs fn as a writer (see storage.Versions.Write) with its own
// tracker, and reports the update's cost.
func (e *Engine) update(fn func(cur *engineState, tr *storage.Tracker) (*engineState, []storage.NodeID, error)) (*UpdateStats, error) {
	var start time.Time
	var tr storage.Tracker
	retired := 0
	err := e.snap.Write(func(cur *engineState) (*engineState, []storage.NodeID, error) {
		start = time.Now()
		next, rets, err := fn(cur, &tr)
		retired = len(rets)
		return next, rets, err
	})
	if err != nil {
		return nil, err
	}
	return &UpdateStats{
		Duration:     time.Since(start),
		Writes:       tr.Writes(),
		PagesWritten: tr.PagesWritten(),
		Reads:        tr.Reads(),
		PagesRead:    tr.PagesRead(),
		Retired:      retired,
	}, nil
}

// toIndexed weighs the object's text against the engine's frozen corpus
// statistics. Terms outside the build-time vocabulary are dropped: they
// could never match any query weighted against the same vocabulary.
func (e *Engine) toIndexed(o Object) iurtree.Object {
	return iurtree.Object{
		ID:  o.ID,
		Loc: geom.Point{X: o.X, Y: o.Y},
		Doc: e.vectorize(o.Text),
	}
}

// Insert adds one object to the index. It is safe to call with queries
// in flight: readers that pinned the previous snapshot keep it; later
// queries see the new object. Concurrent writers serialize. Returns
// ErrClustered on CIUR engines and an error for a duplicate ID.
func (e *Engine) Insert(o Object) (*UpdateStats, error) {
	return e.update(func(cur *engineState, tr *storage.Tracker) (*engineState, []storage.NodeID, error) {
		if _, dup := cur.byID[o.ID]; dup {
			return nil, nil, fmt.Errorf("rstknn: duplicate object ID %d", o.ID)
		}
		io := e.toIndexed(o)
		tree, retired, err := cur.tree.Insert(io, tr)
		if err != nil {
			return nil, nil, err
		}
		objects := make([]iurtree.Object, len(cur.objects), len(cur.objects)+1)
		copy(objects, cur.objects)
		objects = append(objects, io)
		byID := make(map[int32]int, len(objects))
		for i := range objects {
			byID[objects[i].ID] = i
		}
		return &engineState{tree: tree, objects: objects, byID: byID}, retired, nil
	})
}

// Delete removes the object with the given ID. The boolean reports
// whether it existed; deleting an unknown ID is not an error. Readers
// that pinned an earlier snapshot still see the object until they
// finish.
func (e *Engine) Delete(id int32) (bool, *UpdateStats, error) {
	found := false
	us, err := e.update(func(cur *engineState, tr *storage.Tracker) (*engineState, []storage.NodeID, error) {
		if cur.tree.NumClusters() > 0 {
			return nil, nil, ErrClustered
		}
		i, ok := cur.byID[id]
		if !ok {
			return nil, nil, nil
		}
		tree, retired, inTree, err := cur.tree.Delete(id, cur.objects[i].Loc, tr)
		if err != nil {
			return nil, nil, err
		}
		if !inTree {
			return nil, nil, fmt.Errorf("rstknn: object %d in table but not in tree", id)
		}
		objects := make([]iurtree.Object, 0, len(cur.objects)-1)
		objects = append(objects, cur.objects[:i]...)
		objects = append(objects, cur.objects[i+1:]...)
		byID := make(map[int32]int, len(objects))
		for j := range objects {
			byID[objects[j].ID] = j
		}
		found = true
		return &engineState{tree: tree, objects: objects, byID: byID}, retired, nil
	})
	if err != nil || !found {
		return false, nil, err
	}
	return true, us, nil
}

// Apply runs the batch's deletions, then its insertions, and publishes
// the result as ONE snapshot swap: no reader ever observes a partially
// applied batch. Unknown delete IDs are skipped; duplicate insert IDs
// (within the batch, or colliding with an object the batch does not
// delete) fail upfront before anything is modified. On error the
// published snapshot is unchanged.
func (e *Engine) Apply(b Batch) (*UpdateStats, error) {
	return e.update(func(cur *engineState, tr *storage.Tracker) (*engineState, []storage.NodeID, error) {
		return e.apply(cur, b, tr)
	})
}

// apply builds the successor of cur with the batch applied and returns
// it with the nodes it supersedes.
func (e *Engine) apply(cur *engineState, b Batch, tracker *storage.Tracker) (*engineState, []storage.NodeID, error) {
	if cur.tree.NumClusters() > 0 {
		return nil, nil, ErrClustered
	}
	deleting := make(map[int32]bool, len(b.Delete))
	for _, id := range b.Delete {
		deleting[id] = true
	}
	pending := make(map[int32]bool, len(b.Insert))
	for _, o := range b.Insert {
		if pending[o.ID] {
			return nil, nil, fmt.Errorf("rstknn: duplicate object ID %d in batch", o.ID)
		}
		if _, exists := cur.byID[o.ID]; exists && !deleting[o.ID] {
			return nil, nil, fmt.Errorf("rstknn: duplicate object ID %d", o.ID)
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
		next, rets, found, err := tree.Delete(id, objects[i].Loc, tracker)
		if err != nil {
			return nil, nil, err
		}
		if !found {
			return nil, nil, fmt.Errorf("rstknn: object %d in table but not in tree", id)
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
		io := e.toIndexed(o)
		next, rets, err := tree.Insert(io, tracker)
		if err != nil {
			return nil, nil, err
		}
		tree = next
		retired = append(retired, rets...)
		objects = append(objects, io)
		byID[io.ID] = len(objects) - 1
	}
	return &engineState{tree: tree, objects: objects, byID: byID}, retired, nil
}

// Compact frees every retired node no pinned reader can reach anymore
// and returns how many were reclaimed. Updates trigger the same sweep
// opportunistically; Compact exists for idle-time maintenance.
func (e *Engine) Compact() int { return e.snap.TryFree() }

// CheckInvariants verifies the full structural invariants of the current
// snapshot (bounding rectangles, counts, vector envelopes, leaf depth).
// It pins the snapshot like a query, so it is safe with writers running.
func (e *Engine) CheckInvariants() error {
	return e.snap.Read(func(st *engineState) error { return st.tree.CheckInvariants(nil) })
}
