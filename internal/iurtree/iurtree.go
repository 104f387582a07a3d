// Package iurtree implements the Intersection-Union R-tree (IUR-tree) of
// the RSTkNN paper and its cluster-enhanced variant (CIUR-tree).
//
// An IUR-tree is an R-tree in which every entry is augmented with
//
//   - the number of objects in its subtree, and
//   - a textual envelope: the intersection vector (per-term minimum weight
//     over all documents below) and the union vector (per-term maximum).
//
// A CIUR-tree additionally partitions each subtree's objects by a textual
// clustering and stores one (count, envelope) summary per cluster, giving
// much tighter textual bounds when a subtree mixes unrelated documents.
//
// The tree topology is produced by the rtree substrate; this package
// augments it bottom-up and serializes every node onto the simulated disk
// (package storage), so queries incur the paper's I/O model: one node
// visit = ceil(nodeBytes/pageSize) page accesses.
package iurtree

import (
	"errors"
	"fmt"

	"rstknn/internal/cluster"
	"rstknn/internal/geom"
	"rstknn/internal/rtree"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// Object is one spatial-textual object to index.
type Object struct {
	ID  int32
	Loc geom.Point
	Doc vector.Vector
}

// ClusterSummary is the per-cluster augmentation of a CIUR-tree entry.
type ClusterSummary struct {
	Cluster int32
	Count   int32
	Env     vector.Envelope
}

// Entry is one decoded slot of a tree node. Exactly one of Child/ObjID is
// meaningful: internal entries point at a child node, leaf entries carry
// an object. Leaf entries have Count == 1 and a degenerate envelope
// (Int == Uni == the object's document vector).
type Entry struct {
	Rect     geom.Rect
	Child    storage.NodeID // InvalidNode for leaf entries
	ObjID    int32
	Count    int32
	Env      vector.Envelope
	Clusters []ClusterSummary // nil for plain IUR-trees
}

// IsObject reports whether the entry is a leaf-level object entry.
func (e *Entry) IsObject() bool { return e.Child == storage.InvalidNode }

// Loc returns the point location of an object entry.
func (e *Entry) Loc() geom.Point { return e.Rect.Min }

// Doc returns the exact document vector of an object entry.
func (e *Entry) Doc() vector.Vector { return e.Env.Int }

// ClusterCounts returns the per-cluster histogram of the entry given the
// total number of clusters, or nil for unclustered entries.
func (e *Entry) ClusterCounts(numClusters int) []int {
	if len(e.Clusters) == 0 {
		return nil
	}
	counts := make([]int, numClusters)
	for _, cs := range e.Clusters {
		if int(cs.Cluster) < numClusters {
			counts[cs.Cluster] = int(cs.Count)
		}
	}
	return counts
}

// Node is one decoded tree node.
type Node struct {
	ID      storage.NodeID
	Leaf    bool
	Entries []Entry
}

// Config controls construction.
type Config struct {
	// Store is the simulated disk to write nodes to. Required.
	Store storage.Blobs
	// MinEntries/MaxEntries set the R-tree fan-out; zero values pick the
	// defaults (13/32).
	MinEntries, MaxEntries int
	// Clustering, when non-nil, builds a CIUR-tree: Of[i] must be the
	// cluster of objects[i] and Clusters the total cluster count.
	Clustering *cluster.Assignment
	// Incremental builds the topology by one-at-a-time R-tree insertion
	// (quadratic split) instead of STR bulk loading. Slower; mirrors a
	// dynamically grown index.
	Incremental bool
}

// Snapshot is one immutable version of an IUR-tree or CIUR-tree over a
// simulated disk. Build one with Build, reopen a saved one with Open, or
// derive the next version with Insert/Delete — updates are path-copying
// copy-on-write and return a NEW snapshot instead of mutating the
// receiver.
//
// A snapshot is safe for concurrent readers: ReadNodeTracked,
// ReadViewTracked, Walk, and the accessor methods may be called from
// any number of goroutines, and keep working while Insert/Delete derive
// successor snapshots from it. The only lifetime rule: once the NodeIDs
// an update retired are freed (storage.Reclaimer), the superseded
// snapshots that referenced them must no longer be read.
type Snapshot struct {
	store       storage.Blobs
	rootID      storage.NodeID
	rootEntry   Entry // summary of the whole dataset
	height      int
	size        int
	space       geom.Rect
	maxD        float64
	numClusters int         // 0 for plain IUR-trees
	boundCache  *boundCache // textual bound cache; on by default, see SetBoundCache
}

// Fanout resolves a configured fan-out pair as Build does — a zero max
// becomes rtree.DefaultMaxEntries, a zero min 40% of max — and checks
// the result with rtree.CheckFanout.
func Fanout(min, max int) (int, int, error) {
	if max == 0 {
		max = rtree.DefaultMaxEntries
	}
	if min == 0 {
		min = max * 2 / 5
	}
	if err := rtree.CheckFanout(min, max); err != nil {
		return 0, 0, err
	}
	return min, max, nil
}

// Build constructs the tree over the given objects and seals it to disk.
// Object IDs must be unique; they are the identifiers query results use.
func Build(objects []Object, cfg Config) (*Snapshot, error) {
	if cfg.Store == nil {
		return nil, errors.New("iurtree: Config.Store is required")
	}
	min, max, err := Fanout(cfg.MinEntries, cfg.MaxEntries)
	if err != nil {
		return nil, err
	}
	if cfg.Clustering != nil && len(cfg.Clustering.Of) != len(objects) {
		return nil, fmt.Errorf("iurtree: clustering covers %d objects, have %d",
			len(cfg.Clustering.Of), len(objects))
	}
	seen := make(map[int32]bool, len(objects))
	byID := make(map[int32]*Object, len(objects))
	for i := range objects {
		o := &objects[i]
		if seen[o.ID] {
			return nil, fmt.Errorf("iurtree: duplicate object ID %d", o.ID)
		}
		seen[o.ID] = true
		byID[o.ID] = o
	}

	// 1. Spatial topology.
	rt := rtree.New(min, max)
	items := make([]rtree.Item, len(objects))
	for i, o := range objects {
		items[i] = rtree.Item{ID: o.ID, Rect: o.Loc.Rect()}
	}
	if cfg.Incremental {
		for _, it := range items {
			rt.Insert(it)
		}
	} else {
		rt.BulkLoad(items)
	}

	t := &Snapshot{
		store:      cfg.Store,
		height:     rt.Height(),
		size:       len(objects),
		boundCache: newBoundCache(DefaultBoundCacheNodes),
	}
	clusterOf := func(id int32) int32 { return 0 }
	if cfg.Clustering != nil {
		t.numClusters = cfg.Clustering.Clusters
		idx := make(map[int32]int, len(objects))
		for i, o := range objects {
			idx[o.ID] = i
		}
		of := cfg.Clustering.Of
		clusterOf = func(id int32) int32 { return int32(of[idx[id]]) }
	}

	// 2. Augment + serialize bottom-up (post-order), so children have IDs
	// before their parent entry is written.
	var seal func(n *rtree.Node) (Entry, error)
	seal = func(n *rtree.Node) (Entry, error) {
		node := Node{Leaf: n.Leaf}
		node.Entries = make([]Entry, 0, len(n.Entries))
		if n.Leaf {
			for _, re := range n.Entries {
				o := byID[re.ID]
				e := Entry{
					Rect:  re.Rect,
					Child: storage.InvalidNode,
					ObjID: o.ID,
					Count: 1,
					Env:   vector.Exact(o.Doc),
				}
				if t.numClusters > 0 {
					e.Clusters = []ClusterSummary{{
						Cluster: clusterOf(o.ID),
						Count:   1,
						Env:     e.Env,
					}}
				}
				node.Entries = append(node.Entries, e)
			}
		} else {
			for _, re := range n.Entries {
				child, err := seal(re.Child)
				if err != nil {
					return Entry{}, err
				}
				node.Entries = append(node.Entries, child)
			}
		}
		id := t.store.Put(encodeNode(&node))
		return summarize(&node, id), nil
	}

	root, err := seal(rt.Root())
	if err != nil {
		return nil, err
	}
	t.rootID = root.Child
	t.rootEntry = root
	t.space = root.Rect
	t.maxD = root.Rect.Diagonal()
	if t.maxD == 0 {
		t.maxD = 1 // single point or empty dataset; avoid division by zero
	}
	return t, nil
}

// summarize builds the parent-level entry describing node (already stored
// under id): union MBR, summed counts, merged envelopes, merged cluster
// summaries.
func summarize(n *Node, id storage.NodeID) Entry {
	e := Entry{
		Rect:  geom.EmptyRect(),
		Child: id,
	}
	first := true
	byCluster := make(map[int32]*ClusterSummary)
	var order []int32
	for i := range n.Entries {
		c := &n.Entries[i]
		e.Rect = e.Rect.Union(c.Rect)
		e.Count += c.Count
		if first {
			e.Env = c.Env
			first = false
		} else {
			e.Env = vector.Merge(e.Env, c.Env)
		}
		for _, cs := range c.Clusters {
			if prev, ok := byCluster[cs.Cluster]; ok {
				prev.Count += cs.Count
				prev.Env = vector.Merge(prev.Env, cs.Env)
			} else {
				cp := cs
				byCluster[cs.Cluster] = &cp
				order = append(order, cs.Cluster)
			}
		}
	}
	if len(order) > 0 {
		e.Clusters = make([]ClusterSummary, 0, len(order))
		for _, c := range order {
			e.Clusters = append(e.Clusters, *byCluster[c])
		}
	}
	return e
}

// ReadNodeTracked fetches and decodes the node stored under id. The
// simulated I/O is charged to tr (when non-nil) in addition to the
// store's global counters. It returns a private decoded copy, so the
// update paths may edit its entries before re-encoding. Queries read
// through ReadViewTracked instead.
func (t *Snapshot) ReadNodeTracked(id storage.NodeID, tr *storage.Tracker) (*Node, error) {
	blob, err := t.store.GetTracked(id, tr)
	if err != nil {
		return nil, err
	}
	n, err := decodeNode(blob)
	if err != nil {
		return nil, fmt.Errorf("iurtree: node %d: %w", id, err)
	}
	n.ID = id
	return n, nil
}

// ReadViewTracked fetches the node stored under id and returns a
// zero-copy NodeView over its page bytes, charging the same simulated
// I/O as ReadNodeTracked: a bound-cache hit saves only the decode work,
// never a page access, so traversal cost accounting is identical to the
// eager path. offs is an optional offset buffer to reuse (grown when too
// small; recover it with NodeView.RecycleBuf).
//
// The view aliases the stored blob. It is valid for as long as the
// caller can rely on the node not being freed — for queries, the
// lifetime of the snapshot pin.
func (t *Snapshot) ReadViewTracked(id storage.NodeID, tr *storage.Tracker, offs []int32) (NodeView, error) {
	blob, err := t.store.GetTracked(id, tr)
	if err != nil {
		return NodeView{offs: offs}, err
	}
	leaf, offs, err := parseNodeView(blob, offs)
	if err != nil {
		return NodeView{offs: offs}, fmt.Errorf("iurtree: node %d: %w", id, err)
	}
	var text *nodeText
	if t.boundCache != nil {
		text, _ = t.boundCache.get(id)
	}
	if text == nil {
		// First touch (or cache disabled): run the full decode — which
		// also performs the semantic vector validation parseNodeView
		// skips — and remember its textual payload.
		n, err := decodeNode(blob)
		if err != nil {
			return NodeView{offs: offs}, fmt.Errorf("iurtree: node %d: %w", id, err)
		}
		n.ID = id
		text = newNodeText(n)
		if t.boundCache != nil {
			t.boundCache.put(id, text)
		}
	}
	return NodeView{id: id, blob: blob, offs: offs, text: text, leaf: leaf}, nil
}

// SetBoundCache resizes (capacity > 0) or disables (capacity <= 0) the
// textual bound cache: a per-NodeID memoization of decoded envelopes and
// cluster summaries that the zero-copy read path (ReadViewTracked)
// shares across queries and rounds. Build and Open enable it at
// DefaultBoundCacheNodes. Hits never skip the simulated page I/O, so
// results AND I/O counts are identical with the cache on or off —
// disabling it only restores the eager per-read decode (the DESIGN.md
// §10 ablation).
//
// Call it before the snapshot serves queries or derives successors: the
// cache pointer is shared with derived snapshots at derive() time, and
// the reclaimer's eviction hook only reaches caches installed on the
// snapshot the hook was bound to.
func (t *Snapshot) SetBoundCache(capacity int) {
	if capacity <= 0 {
		t.boundCache = nil
		return
	}
	t.boundCache = newBoundCache(capacity)
}

// BoundCacheStats reports the bound cache's cumulative hit/miss counters
// and current size (zero values when the cache is disabled).
type BoundCacheStats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// BoundCacheStats returns the current bound-cache statistics.
func (t *Snapshot) BoundCacheStats() BoundCacheStats {
	if t.boundCache == nil {
		return BoundCacheStats{}
	}
	return BoundCacheStats{
		Hits:    t.boundCache.hits.Load(),
		Misses:  t.boundCache.misses.Load(),
		Entries: t.boundCache.entries(),
	}
}

// InvalidateNode drops one node from the bound cache (shared by every
// snapshot derived from this one). The engine calls it from the
// reclaimer's on-free hook, so a recycled NodeID can never serve stale
// bounds; a snapshot without the cache ignores the call.
func (t *Snapshot) InvalidateNode(id storage.NodeID) {
	if t.boundCache != nil {
		t.boundCache.invalidate(id)
	}
}

// RootID returns the NodeID of the root node.
func (t *Snapshot) RootID() storage.NodeID { return t.rootID }

// RootEntry returns the entry summarizing the entire dataset: the
// dataspace MBR, total object count, corpus envelope, and (for
// CIUR-trees) the full cluster histogram.
func (t *Snapshot) RootEntry() Entry { return t.rootEntry }

// Len returns the number of indexed objects.
func (t *Snapshot) Len() int { return t.size }

// Height returns the number of levels.
func (t *Snapshot) Height() int { return t.height }

// Space returns the dataspace MBR.
func (t *Snapshot) Space() geom.Rect { return t.space }

// MaxD returns the normalization distance: the dataspace diagonal, the
// maximum distance between any two indexed points.
func (t *Snapshot) MaxD() float64 { return t.maxD }

// NumClusters returns the clustering arity, or 0 for a plain IUR-tree.
func (t *Snapshot) NumClusters() int { return t.numClusters }

// Clustered reports whether the tree is a CIUR-tree.
func (t *Snapshot) Clustered() bool { return t.numClusters > 0 }

// Store exposes the underlying simulated disk (for I/O statistics).
func (t *Snapshot) Store() storage.Blobs { return t.store }

// Walk visits every node of the tree in depth-first order, calling visit
// with the node and its depth (0 at the root). It charges simulated I/O
// like any other read path; reads are unattributed (no tracker).
func (t *Snapshot) Walk(visit func(n *Node, depth int) error) error {
	return t.WalkTracked(nil, visit)
}

// WalkTracked is Walk with the traversal's node reads attributed to tr,
// so maintenance scans show up in per-query I/O accounting instead of
// vanishing into the global counters. A nil tracker is allowed.
func (t *Snapshot) WalkTracked(tr *storage.Tracker, visit func(n *Node, depth int) error) error {
	var rec func(id storage.NodeID, depth int) error
	rec = func(id storage.NodeID, depth int) error {
		n, err := t.ReadNodeTracked(id, tr)
		if err != nil {
			return err
		}
		if err := visit(n, depth); err != nil {
			return err
		}
		if n.Leaf {
			return nil
		}
		for i := range n.Entries {
			if err := rec(n.Entries[i].Child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if t.size == 0 {
		return nil
	}
	return rec(t.rootID, 0)
}

// CheckInvariants verifies the IUR-tree augmentation invariants on the
// whole tree: counts add up, every entry's MBR/envelope contains its
// subtree, per-cluster summaries partition the entry count, and all
// leaves sit at the same depth. Intended for tests and the -checkindex
// maintenance command; it reads every node.
func (t *Snapshot) CheckInvariants() error {
	return t.CheckInvariantsTracked(nil)
}

// CheckInvariantsTracked is CheckInvariants with the walk's node reads
// attributed to tr. A nil tracker is allowed.
func (t *Snapshot) CheckInvariantsTracked(tr *storage.Tracker) error {
	if t.size == 0 {
		if t.rootEntry.Count != 0 {
			return fmt.Errorf("empty tree has root count %d", t.rootEntry.Count)
		}
		return nil
	}
	if t.rootEntry.Count != int32(t.size) {
		return fmt.Errorf("root entry count %d != tree size %d", t.rootEntry.Count, t.size)
	}
	if !t.space.ContainsRect(t.rootEntry.Rect) {
		return fmt.Errorf("root rect %v outside dataspace %v", t.rootEntry.Rect, t.space)
	}
	leafDepth := t.height - 1
	var check func(e Entry, depth int) error
	check = func(e Entry, depth int) error {
		if e.IsObject() {
			if e.Count != 1 {
				return fmt.Errorf("object %d has count %d", e.ObjID, e.Count)
			}
			if !e.Env.Int.Equal(e.Env.Uni) {
				return fmt.Errorf("object %d has non-degenerate envelope", e.ObjID)
			}
			return nil
		}
		n, err := t.ReadNodeTracked(e.Child, tr)
		if err != nil {
			return err
		}
		if n.Leaf && depth != leafDepth {
			return fmt.Errorf("node %d: leaf at depth %d, want %d (unbalanced tree)", e.Child, depth, leafDepth)
		}
		if !n.Leaf && depth >= leafDepth {
			return fmt.Errorf("node %d: internal node at depth %d, height %d", e.Child, depth, t.height)
		}
		if len(n.Entries) == 0 {
			return fmt.Errorf("node %d: empty non-root node", e.Child)
		}
		var count int32
		for i := range n.Entries {
			c := n.Entries[i]
			count += c.Count
			if !e.Rect.ContainsRect(c.Rect) {
				return fmt.Errorf("node %d: child rect %v outside parent %v", e.Child, c.Rect, e.Rect)
			}
			if !e.Env.Int.DominatedBy(c.Env.Int) {
				return fmt.Errorf("node %d: intersection vector not a lower bound", e.Child)
			}
			if !c.Env.Uni.DominatedBy(e.Env.Uni) {
				return fmt.Errorf("node %d: union vector not an upper bound", e.Child)
			}
			if err := check(c, depth+1); err != nil {
				return err
			}
		}
		if count != e.Count {
			return fmt.Errorf("node %d: children count %d != entry count %d", e.Child, count, e.Count)
		}
		var clusterTotal int32
		for _, cs := range e.Clusters {
			clusterTotal += cs.Count
			if !cs.Env.Valid() {
				return fmt.Errorf("node %d cluster %d: invalid envelope", e.Child, cs.Cluster)
			}
			if !e.Env.Int.DominatedBy(cs.Env.Int) {
				return fmt.Errorf("node %d cluster %d: cluster intersection below entry intersection", e.Child, cs.Cluster)
			}
			if !cs.Env.Uni.DominatedBy(e.Env.Uni) {
				return fmt.Errorf("node %d cluster %d: cluster union above entry union", e.Child, cs.Cluster)
			}
		}
		if len(e.Clusters) > 0 && clusterTotal != e.Count {
			return fmt.Errorf("node %d: cluster counts sum to %d, entry count %d", e.Child, clusterTotal, e.Count)
		}
		return nil
	}
	return check(t.rootEntry, 0)
}
