// Package rtree implements the R-tree substrate the IUR-tree family is
// built on: a classic Guttman R-tree with quadratic split, deletion with
// tree condensation, and Sort-Tile-Recursive (STR) bulk loading, plus
// range and geometric k-nearest-neighbor queries.
//
// The tree is an in-memory structure over (ID, Rect) items. The IUR-tree
// layer (package iurtree) reuses the node topology produced here, augments
// the nodes with textual summaries, and serializes them onto the simulated
// disk. Keeping the purely spatial mechanics here lets them be tested in
// isolation against brute force.
package rtree

import (
	"fmt"
	"math"
	"sort"

	"rstknn/internal/geom"
	"rstknn/internal/pq"
)

// Item is an indexed object: an opaque ID and its bounding rectangle
// (a degenerate rectangle for points).
type Item struct {
	ID   int32
	Rect geom.Rect
}

// Entry is one slot of a node: either a child pointer (internal node) or
// an item ID (leaf node), with the MBR of everything below it.
type Entry struct {
	Rect  geom.Rect
	Child *Node // nil in leaves
	ID    int32 // valid only in leaves
}

// Node is an R-tree node. Exported so augmenting layers can walk the
// topology; mutating nodes outside this package invalidates the tree.
type Node struct {
	Leaf    bool
	Entries []Entry
	parent  *Node
}

// MBR returns the minimum bounding rectangle of the node's entries.
func (n *Node) MBR() geom.Rect {
	r := geom.EmptyRect()
	for _, e := range n.Entries {
		r = r.Union(e.Rect)
	}
	return r
}

// Tree is an R-tree. Create one with New; the zero value is unusable.
type Tree struct {
	root       *Node
	minEntries int
	maxEntries int
	size       int
	height     int // number of levels; 1 for a lone leaf root
}

// DefaultMaxEntries is the default node fan-out: roughly what fits a 4 KiB
// page for 2-D rectangles with a child pointer.
const DefaultMaxEntries = 32

// CheckFanout reports whether New accepts the fan-out [min, max]: min
// must be at least 2 and at most max/2 to keep splits well defined.
func CheckFanout(min, max int) error {
	if min < 2 || max < 4 || min > max/2 {
		return fmt.Errorf("rtree: invalid fan-out [%d, %d]", min, max)
	}
	return nil
}

// New returns an empty tree with fan-out in [min, max]. It panics when
// CheckFanout rejects the pair.
func New(min, max int) *Tree {
	if err := CheckFanout(min, max); err != nil {
		panic(err.Error())
	}
	return &Tree{
		root:       &Node{Leaf: true},
		minEntries: min,
		maxEntries: max,
		height:     1,
	}
}

// NewDefault returns an empty tree with the default fan-out.
func NewDefault() *Tree { return New(DefaultMaxEntries*2/5, DefaultMaxEntries) }

// Len returns the number of indexed items.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// Root returns the root node for read-only topology walks.
func (t *Tree) Root() *Node { return t.root }

// MinEntries returns the configured minimum fan-out.
func (t *Tree) MinEntries() int { return t.minEntries }

// MaxEntries returns the configured maximum fan-out.
func (t *Tree) MaxEntries() int { return t.maxEntries }

// Insert adds an item to the tree.
func (t *Tree) Insert(it Item) {
	leaf := t.chooseLeaf(t.root, it.Rect)
	leaf.Entries = append(leaf.Entries, Entry{Rect: it.Rect, ID: it.ID})
	t.size++
	t.splitUpward(leaf)
}

// chooseLeaf descends from n to the leaf whose MBR needs the least
// enlargement to cover r (ties by smallest area) — Guttman's ChooseLeaf.
func (t *Tree) chooseLeaf(n *Node, r geom.Rect) *Node {
	for !n.Leaf {
		best := 0
		bestEnl := math.Inf(1)
		bestArea := math.Inf(1)
		for i, e := range n.Entries {
			enl := e.Rect.Enlargement(r)
			area := e.Rect.Area()
			//rstknn:allow floatcmp exact tie-break between identical enlargements; any split is correct
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		n = n.Entries[best].Child
	}
	return n
}

// splitUpward splits overflowing nodes from n to the root, updating parent
// MBRs along the way.
func (t *Tree) splitUpward(n *Node) {
	for n != nil {
		if len(n.Entries) <= t.maxEntries {
			t.adjustMBRs(n)
			return
		}
		left, right := t.quadraticSplit(n)
		if n.parent == nil {
			// Grow a new root.
			newRoot := &Node{Leaf: false}
			left.parent, right.parent = newRoot, newRoot
			newRoot.Entries = []Entry{
				{Rect: left.MBR(), Child: left},
				{Rect: right.MBR(), Child: right},
			}
			t.root = newRoot
			t.height++
			return
		}
		parent := n.parent
		// Replace n's entry with left, append right.
		for i := range parent.Entries {
			if parent.Entries[i].Child == n {
				left.parent = parent
				parent.Entries[i] = Entry{Rect: left.MBR(), Child: left}
				break
			}
		}
		right.parent = parent
		parent.Entries = append(parent.Entries, Entry{Rect: right.MBR(), Child: right})
		n = parent
	}
}

// adjustMBRs refreshes the MBRs stored in ancestors of n.
func (t *Tree) adjustMBRs(n *Node) {
	for n.parent != nil {
		p := n.parent
		for i := range p.Entries {
			if p.Entries[i].Child == n {
				p.Entries[i].Rect = n.MBR()
				break
			}
		}
		n = p
	}
}

// quadraticSplit splits the overflowing node n into two nodes using
// Guttman's quadratic PickSeeds/PickNext heuristics. n is reused as the
// left node; the right node is returned new.
func (t *Tree) quadraticSplit(n *Node) (left, right *Node) {
	entries := n.Entries
	// PickSeeds: the pair wasting the most area if grouped together.
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
	left = n
	right = &Node{Leaf: n.Leaf}
	lEnt := []Entry{entries[s1]}
	rEnt := []Entry{entries[s2]}
	lRect, rRect := entries[s1].Rect, entries[s2].Rect

	rest := make([]Entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != s1 && i != s2 {
			rest = append(rest, e)
		}
	}
	for len(rest) > 0 {
		// Force assignment when one side must take all remaining entries
		// to reach minEntries.
		if len(lEnt)+len(rest) == t.minEntries {
			lEnt = append(lEnt, rest...)
			for _, e := range rest {
				lRect = lRect.Union(e.Rect)
			}
			break
		}
		if len(rEnt)+len(rest) == t.minEntries {
			rEnt = append(rEnt, rest...)
			for _, e := range rest {
				rRect = rRect.Union(e.Rect)
			}
			break
		}
		// PickNext: entry with the greatest preference for one group.
		bestIdx, bestDiff := 0, -1.0
		for i, e := range rest {
			d1 := lRect.Enlargement(e.Rect)
			d2 := rRect.Enlargement(e.Rect)
			if diff := math.Abs(d1 - d2); diff > bestDiff {
				bestIdx, bestDiff = i, diff
			}
		}
		e := rest[bestIdx]
		rest[bestIdx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		d1 := lRect.Enlargement(e.Rect)
		d2 := rRect.Enlargement(e.Rect)
		takeLeft := d1 < d2 ||
			(d1 == d2 && lRect.Area() < rRect.Area()) || //rstknn:allow floatcmp quadratic-split tie-breaks; exact ties fall through to entry counts
			(d1 == d2 && lRect.Area() == rRect.Area() && len(lEnt) <= len(rEnt))
		if takeLeft {
			lEnt = append(lEnt, e)
			lRect = lRect.Union(e.Rect)
		} else {
			rEnt = append(rEnt, e)
			rRect = rRect.Union(e.Rect)
		}
	}
	left.Entries = lEnt
	right.Entries = rEnt
	if !n.Leaf {
		for i := range left.Entries {
			left.Entries[i].Child.parent = left
		}
		for i := range right.Entries {
			right.Entries[i].Child.parent = right
		}
	}
	return left, right
}

// Delete removes the item with the given ID and rectangle. It returns
// false when no such item is indexed.
func (t *Tree) Delete(it Item) bool {
	leaf, idx := t.findLeaf(t.root, it)
	if leaf == nil {
		return false
	}
	leaf.Entries = append(leaf.Entries[:idx], leaf.Entries[idx+1:]...)
	t.size--
	t.condense(leaf)
	// Shrink the root while it is an internal node with a single child.
	for !t.root.Leaf && len(t.root.Entries) == 1 {
		t.root = t.root.Entries[0].Child
		t.root.parent = nil
		t.height--
	}
	return true
}

func (t *Tree) findLeaf(n *Node, it Item) (*Node, int) {
	if n.Leaf {
		for i, e := range n.Entries {
			if e.ID == it.ID && e.Rect == it.Rect {
				return n, i
			}
		}
		return nil, 0
	}
	for _, e := range n.Entries {
		if e.Rect.ContainsRect(it.Rect) {
			if leaf, i := t.findLeaf(e.Child, it); leaf != nil {
				return leaf, i
			}
		}
	}
	return nil, 0
}

// condense handles underflow after a deletion: underfull nodes are removed
// and their surviving entries reinserted (Guttman's CondenseTree).
func (t *Tree) condense(n *Node) {
	var orphans []Entry
	var orphanLeaves []*Node
	for n.parent != nil {
		p := n.parent
		if len(n.Entries) < t.minEntries {
			// Detach n from its parent, queue its entries for reinsertion.
			for i := range p.Entries {
				if p.Entries[i].Child == n {
					p.Entries = append(p.Entries[:i], p.Entries[i+1:]...)
					break
				}
			}
			if n.Leaf {
				orphans = append(orphans, n.Entries...)
			} else {
				orphanLeaves = append(orphanLeaves, n)
			}
		} else {
			t.adjustMBRs(n)
		}
		n = p
	}
	// Reinsert leaf-level orphans as fresh items.
	for _, e := range orphans {
		t.size-- // Insert will re-increment
		t.Insert(Item{ID: e.ID, Rect: e.Rect})
	}
	// Reinsert the leaf entries found under orphaned internal nodes.
	for _, sub := range orphanLeaves {
		collectLeafEntries(sub, func(e Entry) {
			t.size--
			t.Insert(Item{ID: e.ID, Rect: e.Rect})
		})
	}
}

func collectLeafEntries(n *Node, emit func(Entry)) {
	if n.Leaf {
		for _, e := range n.Entries {
			emit(e)
		}
		return
	}
	for _, e := range n.Entries {
		collectLeafEntries(e.Child, emit)
	}
}

// Search returns the IDs of all items whose rectangles intersect r.
func (t *Tree) Search(r geom.Rect) []int32 {
	var out []int32
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, e := range n.Entries {
			if !e.Rect.Intersects(r) {
				continue
			}
			if n.Leaf {
				out = append(out, e.ID)
			} else {
				walk(e.Child)
			}
		}
	}
	walk(t.root)
	return out
}

// Neighbor is one geometric kNN result.
type Neighbor struct {
	ID   int32
	Dist float64
}

// NearestNeighbors returns the k items nearest to p by MinDist, ascending.
// Fewer than k are returned when the tree is smaller than k. Ties are
// broken by insertion-queue order (deterministic for a fixed tree).
func (t *Tree) NearestNeighbors(p geom.Point, k int) []Neighbor {
	if k <= 0 || t.size == 0 {
		return nil
	}
	type qe struct {
		node *Node
		id   int32
		item bool
	}
	frontier := pq.NewMin[qe]()
	frontier.Push(qe{node: t.root}, 0)
	out := make([]Neighbor, 0, k)
	for !frontier.Empty() {
		e, d := frontier.Pop()
		if e.item {
			out = append(out, Neighbor{ID: e.id, Dist: d})
			if len(out) == k {
				return out
			}
			continue
		}
		for _, ent := range e.node.Entries {
			dist := ent.Rect.MinDistPoint(p)
			if e.node.Leaf {
				frontier.Push(qe{id: ent.ID, item: true}, dist)
			} else {
				frontier.Push(qe{node: ent.Child}, dist)
			}
		}
	}
	return out
}

// BulkLoad builds a tree from items using Sort-Tile-Recursive packing.
// It replaces the tree's current contents. STR produces nodes packed to
// maxEntries with spatially coherent tiles — the standard way to build a
// large static index before sealing it to disk.
func (t *Tree) BulkLoad(items []Item) {
	t.root = &Node{Leaf: true}
	t.size = len(items)
	t.height = 1
	if len(items) == 0 {
		return
	}
	entries := make([]Entry, len(items))
	for i, it := range items {
		entries[i] = Entry{Rect: it.Rect, ID: it.ID}
	}
	level := t.packLevel(entries, true)
	for len(level) > 1 {
		parents := make([]Entry, len(level))
		for i, n := range level {
			parents[i] = Entry{Rect: n.MBR(), Child: n}
		}
		level = t.packLevel(parents, false)
		t.height++
	}
	t.root = level[0]
	t.root.parent = nil
}

// packLevel groups entries into nodes of up to maxEntries using STR tiling
// and returns the created nodes.
func (t *Tree) packLevel(entries []Entry, leaf bool) []*Node {
	n := len(entries)
	cap1 := t.maxEntries
	nodeCount := (n + cap1 - 1) / cap1
	sliceCount := int(math.Ceil(math.Sqrt(float64(nodeCount))))
	sliceSize := sliceCount * cap1

	sort.Slice(entries, func(i, j int) bool {
		return entries[i].Rect.Center().X < entries[j].Rect.Center().X
	})
	var nodes []*Node
	for start := 0; start < n; start += sliceSize {
		end := start + sliceSize
		if end > n {
			end = n
		}
		slice := entries[start:end]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Rect.Center().Y < slice[j].Rect.Center().Y
		})
		for s := 0; s < len(slice); s += cap1 {
			e := s + cap1
			if e > len(slice) {
				e = len(slice)
			}
			node := &Node{Leaf: leaf, Entries: append([]Entry(nil), slice[s:e]...)}
			if !leaf {
				for i := range node.Entries {
					node.Entries[i].Child.parent = node
				}
			}
			nodes = append(nodes, node)
		}
	}
	return nodes
}

// CheckInvariants validates the structural invariants of the tree and
// returns a descriptive error on the first violation. Used by tests and
// available to callers after bulk operations.
func (t *Tree) CheckInvariants() error {
	leafDepth := -1
	count := 0
	var walk func(n *Node, depth int, isRoot bool) error
	walk = func(n *Node, depth int, isRoot bool) error {
		if !isRoot {
			if len(n.Entries) < t.minEntries {
				// STR packing may leave one trailing node under-full per
				// level; accept >= 1 for leaves produced by bulk load.
				if len(n.Entries) < 1 {
					return fmt.Errorf("empty non-root node at depth %d", depth)
				}
			}
		}
		if len(n.Entries) > t.maxEntries {
			return fmt.Errorf("node overflow at depth %d: %d entries", depth, len(n.Entries))
		}
		if n.Leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("leaves at different depths: %d vs %d", leafDepth, depth)
			}
			count += len(n.Entries)
			return nil
		}
		for i, e := range n.Entries {
			if e.Child == nil {
				return fmt.Errorf("internal node with nil child at depth %d entry %d", depth, i)
			}
			if e.Child.parent != n {
				return fmt.Errorf("broken parent pointer at depth %d entry %d", depth, i)
			}
			if got := e.Child.MBR(); !e.Rect.ContainsRect(got) {
				return fmt.Errorf("entry MBR %v does not contain child MBR %v", e.Rect, got)
			}
			if err := walk(e.Child, depth+1, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0, true); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("size mismatch: counted %d, recorded %d", count, t.size)
	}
	if leafDepth != -1 && leafDepth+1 != t.height {
		return fmt.Errorf("height mismatch: leaves at depth %d, height %d", leafDepth, t.height)
	}
	return nil
}
