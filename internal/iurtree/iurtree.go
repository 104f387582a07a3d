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
// Build packs the objects into nodes of up to 32 entries with
// Sort-Tile-Recursive bulk loading, augments them bottom-up and
// serializes every node onto the simulated disk (package storage), so
// queries incur the paper's I/O model: one node visit =
// ceil(nodeBytes/pageSize) page accesses. Insert and Delete (update.go)
// maintain the tree like an R-tree, with Guttman's quadratic split.
package iurtree

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"rstknn/internal/cluster"
	"rstknn/internal/geom"
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
	// Clustering, when non-nil, builds a CIUR-tree: Of[i] must be the
	// cluster of objects[i] and Clusters the total cluster count.
	Clustering *cluster.Assignment
}

// Snapshot is one immutable version of an IUR-tree or CIUR-tree over a
// simulated disk. Build one with Build, reopen a saved one with Open, or
// derive the next version with Insert/Delete — updates are path-copying
// copy-on-write and return a NEW snapshot instead of mutating the
// receiver.
//
// A snapshot is safe for concurrent readers: ReadSharedTracked, Walk,
// CheckInvariants and the accessor methods may be called from any
// number of goroutines, and keep working while Insert/Delete derive
// successor snapshots from it. Every node read, the updates' own
// included, returns the shared decode, which nobody edits. The lifetime
// rule: once the NodeIDs an update retired are freed, the superseded
// snapshots that referenced them must no longer be read, and each freed
// ID must leave the bound cache first (InvalidateNode, which the
// engine's storage.Reclaimer calls from its on-free hook).
type Snapshot struct {
	store       storage.Blobs
	rootID      storage.NodeID
	rootEntry   Entry // summary of the whole dataset
	height      int
	size        int
	space       geom.Rect
	maxD        float64
	numClusters int         // 0 for plain IUR-trees
	boundCache  *boundCache // decoded-node cache; on by default, see SetBoundCache
}

// Build constructs the tree over the given objects and seals it to disk.
// Object IDs must be unique; they are the identifiers query results use.
func Build(objects []Object, cfg Config) (*Snapshot, error) {
	if cfg.Store == nil {
		return nil, errors.New("iurtree: Config.Store is required")
	}
	if cfg.Clustering != nil {
		if err := checkNumClusters(cfg.Clustering.Clusters); err != nil {
			return nil, fmt.Errorf("iurtree: clustering: %w", err)
		}
		if len(cfg.Clustering.Of) != len(objects) {
			return nil, fmt.Errorf("iurtree: clustering covers %d objects, have %d",
				len(cfg.Clustering.Of), len(objects))
		}
		for i, c := range cfg.Clustering.Of {
			if c < 0 || c >= cfg.Clustering.Clusters {
				return nil, fmt.Errorf("iurtree: object %d in cluster %d, want 0..%d",
					objects[i].ID, c, cfg.Clustering.Clusters-1)
			}
		}
	}
	seen := make(map[int32]bool, len(objects))
	for i := range objects {
		if seen[objects[i].ID] {
			return nil, fmt.Errorf("iurtree: duplicate object ID %d", objects[i].ID)
		}
		seen[objects[i].ID] = true
	}

	t := &Snapshot{
		store:      cfg.Store,
		height:     1,
		boundCache: newBoundCache(DefaultBoundCacheNodes),
	}
	if cfg.Clustering != nil {
		t.numClusters = cfg.Clustering.Clusters
	}

	// 1. Spatial topology by STR packing.
	root := &strNode{leaf: true}
	if len(objects) > 0 {
		level := make([]strEntry, len(objects))
		for i := range objects {
			level[i] = strEntry{rect: objects[i].Loc.Rect(), obj: i}
		}
		nodes := packLevel(level, true)
		for len(nodes) > 1 {
			parents := make([]strEntry, len(nodes))
			for i, n := range nodes {
				parents[i] = strEntry{rect: n.mbr(), child: n}
			}
			nodes = packLevel(parents, false)
			t.height++
		}
		root = nodes[0]
	}

	// 2. Augment + serialize bottom-up (post-order), so children have IDs
	// before their parent entry is written.
	var seal func(n *strNode) Entry
	seal = func(n *strNode) Entry {
		node := Node{Leaf: n.leaf, Entries: make([]Entry, 0, len(n.entries))}
		for _, se := range n.entries {
			if !n.leaf {
				node.Entries = append(node.Entries, seal(se.child))
				continue
			}
			e := objectEntry(&objects[se.obj])
			if t.numClusters > 0 {
				e.Clusters = []ClusterSummary{{
					Cluster: int32(cfg.Clustering.Of[se.obj]),
					Count:   1,
					Env:     e.Env,
				}}
			}
			node.Entries = append(node.Entries, e)
		}
		id := t.store.Put(encodeNode(&node))
		return summarize(&node, id)
	}
	t.size = len(objects)
	t.setRoot(seal(root))
	return t, nil
}

// setRoot installs root as the snapshot's root entry and derives the
// dataspace and the normalization distance from its rectangle.
func (t *Snapshot) setRoot(root Entry) {
	t.rootID = root.Child
	t.rootEntry = root
	t.space = root.Rect
	t.maxD = root.Rect.Diagonal()
	if t.maxD == 0 {
		t.maxD = 1 // single point or empty dataset; avoid division by zero
	}
}

// maxFanout is the node capacity: STR packs nodes to it and Insert
// splits a node that outgrows it. The node format's u16 entry count
// holds far more.
const maxFanout = 32

// strNode is one node of the STR topology before sealing. Its entries
// are object indexes (leaf) or child nodes.
type strNode struct {
	leaf    bool
	entries []strEntry
}

// strEntry is one STR input: the object objects[obj] at the leaf level,
// a packed child node above it.
type strEntry struct {
	rect  geom.Rect
	obj   int
	child *strNode
}

// mbr returns the union of the node's entry rectangles.
func (n *strNode) mbr() geom.Rect {
	r := geom.EmptyRect()
	for _, e := range n.entries {
		r = r.Union(e.rect)
	}
	return r
}

// packLevel groups entries into nodes of up to maxFanout with
// Sort-Tile-Recursive tiling: sort by center X, cut into
// ceil(sqrt(nodes)) vertical slices, sort each slice by center Y and
// fill nodes in that order.
func packLevel(entries []strEntry, leaf bool) []*strNode {
	n := len(entries)
	nodeCount := (n + maxFanout - 1) / maxFanout
	sliceSize := int(math.Ceil(math.Sqrt(float64(nodeCount)))) * maxFanout

	sort.Slice(entries, func(i, j int) bool {
		return entries[i].rect.Center().X < entries[j].rect.Center().X
	})
	nodes := make([]*strNode, 0, nodeCount)
	for start := 0; start < n; start += sliceSize {
		slice := entries[start:min(start+sliceSize, n)]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].rect.Center().Y < slice[j].rect.Center().Y
		})
		for s := 0; s < len(slice); s += maxFanout {
			nodes = append(nodes, &strNode{leaf: leaf, entries: slice[s:min(s+maxFanout, len(slice))]})
		}
	}
	return nodes
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

// ReadSharedTracked returns the snapshot's shared decode of the node
// stored under id and charges the simulated I/O of reading it to the
// store's global counters and to tr (when non-nil). It is the only node
// read: queries, the Insert/Delete descents, Walk and CheckInvariants
// all go through it. A bound-cache hit charges the read
// (storage.Blobs.Charge) and fetches nothing: it saves the fetch and the
// decode, never a page access, so traversal cost accounting does not
// depend on the cache. A miss, or any read with the cache off, charges
// and fetches the blob through GetTracked and decodes it; a miss caches
// the result.
//
// The returned node, its entries and everything they reference are
// shared with every other reader and must not be modified. The node is
// immutable for as long as the caller can reach it; the update path
// edits a copy (see own in update.go).
func (t *Snapshot) ReadSharedTracked(id storage.NodeID, tr *storage.Tracker) (*Node, error) {
	if t.boundCache != nil {
		if n, ok := t.boundCache.get(id); ok {
			if err := t.store.Charge(id, tr); err != nil {
				return nil, err
			}
			return n, nil
		}
	}
	blob, err := t.store.GetTracked(id, tr)
	if err != nil {
		return nil, err
	}
	n, err := decodeNode(blob)
	if err != nil {
		return nil, fmt.Errorf("iurtree: node %d: %w", id, err)
	}
	n.ID = id
	if t.boundCache == nil {
		return n, nil
	}
	indexUnions(n)
	t.boundCache.put(id, n)
	return n, nil
}

// indexUnions gives the long union vectors of a node entering the bound
// cache a term index (vector.Vector.WithIndex): every non-object entry's
// and every cluster summary's. A short object vector bounded against
// one of them then finds each of its terms with a bit test and a
// popcount instead of a binary search, at a bit-identical dot product.
// A cached node serves many bound passes, which pays for the build;
// with the cache off every read decodes afresh and stays unindexed.
func indexUnions(n *Node) {
	for i := range n.Entries {
		e := &n.Entries[i]
		if e.IsObject() {
			continue
		}
		e.Env.Uni = e.Env.Uni.WithIndex()
		for j := range e.Clusters {
			cs := &e.Clusters[j].Env
			cs.Uni = cs.Uni.WithIndex()
		}
	}
}

// SetBoundCache resizes (capacity > 0) or disables (capacity <= 0) the
// bound cache: a per-NodeID memoization of decoded nodes that the node
// read (ReadSharedTracked) shares across queries, rounds and updates. Build
// and Open enable it at DefaultBoundCacheNodes. Hits never skip the
// simulated page I/O, so results AND I/O counts are identical with the
// cache on or off — disabling it only restores the per-read decode (the
// DESIGN.md §10 ablation).
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

// checkMaxD rejects a normalization distance that is not positive and
// finite: every spatial similarity divides by it, so such a value makes
// the query bounds NaN or meaningless and queries would answer wrongly
// instead of failing.
func checkMaxD(d float64) error {
	if !(d > 0) || math.IsInf(d, 1) {
		return fmt.Errorf("normalization distance maxD = %g, want positive and finite", d)
	}
	return nil
}

// checkNumClusters rejects a clustering arity the format cannot hold: an
// entry stores its cluster-summary count as a u16, one summary per
// cluster at most.
func checkNumClusters(n int) error {
	if n < 0 || n > math.MaxUint16 {
		return fmt.Errorf("%d clusters, want 0..%d", n, math.MaxUint16)
	}
	return nil
}

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
// with the node and its depth (0 at the root). The reads are charged
// like any other, to tr when non-nil, so maintenance scans show up in
// per-query I/O accounting. visit receives shared decodes and must not
// modify them.
func (t *Snapshot) Walk(tr *storage.Tracker, visit func(n *Node, depth int) error) error {
	var rec func(id storage.NodeID, depth int) error
	rec = func(id storage.NodeID, depth int) error {
		n, err := t.ReadSharedTracked(id, tr)
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
// maintenance command; it reads every node, charging the reads to tr
// when non-nil.
func (t *Snapshot) CheckInvariants(tr *storage.Tracker) error {
	if err := checkMaxD(t.maxD); err != nil {
		return err
	}
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
		for _, cs := range e.Clusters {
			if cs.Cluster < 0 || int(cs.Cluster) >= t.numClusters {
				return fmt.Errorf("entry (child %d, object %d): cluster ID %d, tree has %d clusters",
					e.Child, e.ObjID, cs.Cluster, t.numClusters)
			}
		}
		if e.IsObject() {
			if e.Count != 1 {
				return fmt.Errorf("object %d has count %d", e.ObjID, e.Count)
			}
			if !e.Env.Int.Equal(e.Env.Uni) {
				return fmt.Errorf("object %d has non-degenerate envelope", e.ObjID)
			}
			return nil
		}
		n, err := t.ReadSharedTracked(e.Child, tr)
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
