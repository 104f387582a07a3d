package iurtree

import (
	"errors"
	"math"
	"slices"

	"rstknn/internal/geom"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// Dynamic updates by path-copying copy-on-write. The paper notes that
// IUR-tree maintenance mirrors the underlying R-tree: inserting an
// object descends by least enlargement, splits overflowing nodes, and
// refreshes the augmented summaries (count, intersection/union vectors)
// along the path; deletion removes the leaf entry and collapses empty
// nodes.
//
// Unlike the textbook in-place algorithm, nothing here mutates a stored
// node: every node along the root-to-leaf path is re-encoded into a
// FRESH blob (storage.Blobs.PutTracked) and the update returns a new
// immutable *Snapshot plus the list of superseded NodeIDs. The receiver
// snapshot stays fully queryable — concurrent readers traversing it
// never observe a half-applied update — and the caller decides when the
// superseded blobs are reclaimed (the engine routes them through
// storage.Reclaimer so they are freed only once no pinned reader can
// reach them).
//
// The descents read the shared decodes concurrent queries hold
// (ReadSharedTracked), so an update edits only copies made by own.
//
// CIUR-trees are rejected: their per-cluster summaries depend on an
// offline clustering that a single insert cannot meaningfully extend
// (the paper likewise treats clustering as an index-construction step) —
// rebuild in the background and swap the fresh snapshot in.
//
// Deletion uses a simplified policy compared to Guttman's CondenseTree:
// underfull nodes are tolerated (queries remain exact; only packing
// quality degrades), empty nodes are removed. maxD only grows: inserts
// outside the original dataspace extend it, deletions never shrink it,
// so similarity scores remain comparable across the tree's lifetime.
// The one exception is the placeholder 1 of a single-point dataspace,
// which the first insert that gives the space a positive diagonal
// replaces, so a tree grown from empty normalizes like a built one.

// ErrClustered is returned by Insert/Delete on CIUR-trees.
var ErrClustered = errors.New("iurtree: clustered trees are sealed; rebuild to update")

// derive returns a copy of the snapshot header sharing the store and the
// bound cache; the update paths overwrite the fields they change.
// Sharing the cache is what lets the on-free eviction hook installed on
// the first snapshot cover every successor.
func (t *Snapshot) derive() *Snapshot {
	cp := *t
	return &cp
}

// Insert adds one object to an unclustered snapshot, returning the new
// snapshot and the NodeIDs it superseded. The receiver is unchanged and
// stays valid until the retired nodes are freed. Write and read I/O of
// the update is charged to tr (may be nil).
func (t *Snapshot) Insert(o Object, tr *storage.Tracker) (*Snapshot, []storage.NodeID, error) {
	if t.numClusters > 0 {
		return nil, nil, ErrClustered
	}
	if t.size == 0 {
		// Replace the empty root with a fresh singleton leaf.
		leaf := &Node{Leaf: true, Entries: []Entry{objectEntry(&o)}}
		next := t.derive()
		next.rootID = t.store.PutTracked(encodeNode(leaf), tr)
		next.rootEntry = summarize(leaf, next.rootID)
		next.size = 1
		next.height = 1
		next.space = o.Loc.Rect()
		next.maxD = 1
		return next, []storage.NodeID{t.rootID}, nil
	}

	// Descend by least enlargement, remembering the path.
	type step struct {
		node     *Node
		childIdx int
	}
	var path []step
	id := t.rootID
	for {
		node, err := t.ReadSharedTracked(id, tr)
		if err != nil {
			return nil, nil, err
		}
		if node.Leaf {
			path = append(path, step{node: node})
			break
		}
		best, bestEnl, bestArea := 0, math.Inf(1), math.Inf(1)
		for i := range node.Entries {
			enl := node.Entries[i].Rect.Enlargement(o.Loc.Rect())
			area := node.Entries[i].Rect.Area()
			//rstknn:allow floatcmp exact tie-break between identical enlargements; any split is correct
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		path = append(path, step{node: node, childIdx: best})
		id = node.Entries[best].Child
	}

	// Insert into the leaf, then walk back up re-encoding every path
	// node into a fresh blob (splitting when over-full) and rewiring
	// each parent to its child's new NodeID.
	var retired []storage.NodeID
	leaf := own(path[len(path)-1].node)
	leaf.Entries = append(leaf.Entries, objectEntry(&o))
	pendingEntry, splitEntry := t.copyNode(leaf, tr, &retired)
	for i := len(path) - 2; i >= 0; i-- {
		node := own(path[i].node)
		node.Entries[path[i].childIdx] = pendingEntry
		if splitEntry != nil {
			node.Entries = append(node.Entries, *splitEntry)
		}
		pendingEntry, splitEntry = t.copyNode(node, tr, &retired)
	}
	next := t.derive()
	if splitEntry != nil {
		// The root itself split: grow a new root.
		newRoot := &Node{Leaf: false, Entries: []Entry{pendingEntry, *splitEntry}}
		next.rootID = t.store.PutTracked(encodeNode(newRoot), tr)
		next.rootEntry = summarize(newRoot, next.rootID)
		next.height = t.height + 1
	} else {
		next.rootID = pendingEntry.Child
		next.rootEntry = pendingEntry
	}
	next.size = t.size + 1
	next.space = t.space.Extend(o.Loc)
	// A degenerate dataspace (one point, diagonal 0) carries the
	// placeholder maxD 1, which the first positive diagonal replaces;
	// from then on maxD only grows.
	if d := next.space.Diagonal(); d > next.maxD || (d > 0 && t.space.Diagonal() <= 0) {
		next.maxD = d
	}
	return next, retired, nil
}

// own returns a copy of n, under n's ID, with its own entry slice: the
// only kind of node the update path edits. n is a shared decode that
// concurrent readers may hold, so neither it nor its entries may change.
func own(n *Node) *Node {
	return &Node{ID: n.ID, Leaf: n.Leaf, Entries: slices.Clone(n.Entries)}
}

// copyNode persists node (splitting it when over-full) into fresh blobs,
// retiring the ID it was read under, and returns the refreshed parent
// entry plus the entry of the split-off sibling, if any.
func (t *Snapshot) copyNode(node *Node, tr *storage.Tracker, retired *[]storage.NodeID) (Entry, *Entry) {
	*retired = append(*retired, node.ID)
	if len(node.Entries) <= maxFanout {
		id := t.store.PutTracked(encodeNode(node), tr)
		return summarize(node, id), nil
	}
	left, right := splitEntries(node.Entries)
	kept := &Node{Leaf: node.Leaf, Entries: left}
	sibling := &Node{Leaf: node.Leaf, Entries: right}
	id := t.store.PutTracked(encodeNode(kept), tr)
	sibID := t.store.PutTracked(encodeNode(sibling), tr)
	se := summarize(sibling, sibID)
	return summarize(kept, id), &se
}

// minFill is the fewest entries either half of a split receives: 40%
// of maxFanout, the classic R-tree minimum.
const minFill = maxFanout * 2 / 5

// splitEntries divides an over-full entry list with Guttman's quadratic
// heuristics (seeds maximizing dead area, then least-enlargement
// assignment with a minimum-fill guarantee).
func splitEntries(entries []Entry) (left, right []Entry) {
	s1, s2 := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := entries[i].Rect.Union(entries[j].Rect).Area() -
				entries[i].Rect.Area() - entries[j].Rect.Area()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	left = append(left, entries[s1])
	right = append(right, entries[s2])
	lRect, rRect := entries[s1].Rect, entries[s2].Rect
	unassigned := len(entries) - 2 // non-seed entries not yet placed, e included
	for i, e := range entries {
		if i == s1 || i == s2 {
			continue
		}
		// A side that needs every unassigned entry to reach minFill
		// takes them all.
		toLeft := len(left)+unassigned <= minFill
		if !toLeft && len(right)+unassigned > minFill {
			d1, d2 := lRect.Enlargement(e.Rect), rRect.Enlargement(e.Rect)
			//rstknn:allow floatcmp exact tie-break between identical enlargements; any split is correct
			toLeft = d1 < d2 || (d1 == d2 && len(left) <= len(right))
		}
		if toLeft {
			left = append(left, e)
			lRect = lRect.Union(e.Rect)
		} else {
			right = append(right, e)
			rRect = rRect.Union(e.Rect)
		}
		unassigned--
	}
	return left, right
}

func objectEntry(o *Object) Entry {
	return Entry{
		Rect:  o.Loc.Rect(),
		Child: storage.InvalidNode,
		ObjID: o.ID,
		Count: 1,
		Env:   vector.Exact(o.Doc),
	}
}

// Delete removes the object with the given ID and location from an
// unclustered snapshot. It returns the new snapshot (the receiver when
// the object was not found), the superseded NodeIDs, and whether the
// object was found. The receiver is unchanged and stays valid until the
// retired nodes are freed.
func (t *Snapshot) Delete(id int32, loc geom.Point, tr *storage.Tracker) (*Snapshot, []storage.NodeID, bool, error) {
	if t.numClusters > 0 {
		return nil, nil, false, ErrClustered
	}
	if t.size == 0 {
		return t, nil, false, nil
	}
	var retired []storage.NodeID
	found, rootEntry, rootEmpty, err := t.deleteRec(t.rootID, id, loc, tr, &retired)
	if err != nil {
		return nil, nil, false, err
	}
	if !found {
		return t, nil, false, nil
	}
	next := t.derive()
	next.size = t.size - 1
	if rootEmpty {
		// The last object is gone: the new root is a fresh empty leaf.
		empty := &Node{Leaf: true}
		next.rootID = t.store.PutTracked(encodeNode(empty), tr)
		next.rootEntry = summarize(empty, next.rootID)
		next.height = 1
		return next, retired, true, nil
	}
	// Collapse a chain of single-child internal roots.
	rootID := rootEntry.Child
	rootNode, err := t.ReadSharedTracked(rootID, tr)
	if err != nil {
		return nil, nil, false, err
	}
	height := t.height
	for !rootNode.Leaf && len(rootNode.Entries) == 1 {
		retired = append(retired, rootID)
		rootID = rootNode.Entries[0].Child
		height--
		rootNode, err = t.ReadSharedTracked(rootID, tr)
		if err != nil {
			return nil, nil, false, err
		}
	}
	next.rootID = rootID
	next.rootEntry = summarize(rootNode, rootID)
	next.height = height
	return next, retired, true, nil
}

// deleteRec removes the object below node nid, copying every modified
// node into a fresh blob. It returns whether the object was found, the
// refreshed parent entry for the copied node (meaningless when the node
// became empty), and whether the node is now empty (so the parent
// unlinks it). Nodes on the modified path are appended to retired.
func (t *Snapshot) deleteRec(nid storage.NodeID, id int32, loc geom.Point, tr *storage.Tracker, retired *[]storage.NodeID) (found bool, newEntry Entry, empty bool, err error) {
	node, err := t.ReadSharedTracked(nid, tr)
	if err != nil {
		return false, Entry{}, false, err
	}
	if node.Leaf {
		for i := range node.Entries {
			if node.Entries[i].ObjID == id && node.Entries[i].Loc() == loc {
				node = own(node)
				node.Entries = slices.Delete(node.Entries, i, i+1)
				*retired = append(*retired, nid)
				if len(node.Entries) == 0 {
					return true, Entry{}, true, nil
				}
				newID := t.store.PutTracked(encodeNode(node), tr)
				return true, summarize(node, newID), false, nil
			}
		}
		return false, Entry{}, false, nil
	}
	for i := range node.Entries {
		if !node.Entries[i].Rect.Contains(loc) {
			continue
		}
		childFound, childEntry, childEmpty, err := t.deleteRec(node.Entries[i].Child, id, loc, tr, retired)
		if err != nil {
			return false, Entry{}, false, err
		}
		if !childFound {
			continue
		}
		node = own(node)
		if childEmpty {
			node.Entries = slices.Delete(node.Entries, i, i+1)
		} else {
			node.Entries[i] = childEntry
		}
		*retired = append(*retired, nid)
		if len(node.Entries) == 0 {
			return true, Entry{}, true, nil
		}
		newID := t.store.PutTracked(encodeNode(node), tr)
		return true, summarize(node, newID), false, nil
	}
	return false, Entry{}, false, nil
}
