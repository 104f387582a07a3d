package core

import (
	"sync"

	"rstknn/internal/vector"
)

// The branch-and-bound hot path evaluates bounds for every (candidate,
// contributor) pair it touches; done naively that is one short-lived
// []part per evaluation plus selector state per kNN-bound selection, and
// the allocator dominates the profile. A scratch bundles every reusable
// buffer one worker needs so the steady-state scoring path allocates
// nothing: kthSelector heaps, arena-carved part and contributor slices,
// the scattered side of the current bound pass, and the transient
// buffers of refinement and expansion. Scratches are
// pooled across queries; each query checks one out per worker and
// returns them all when it finishes, so arena memory is recycled without
// ever being shared between two live queries.

// arena is a chunked bump allocator for slices of T. Carved slices stay
// valid until reset; reset recycles every chunk for the next query
// instead of returning memory to the garbage collector.
type arena[T any] struct {
	// chunk is the allocation granularity; requests larger than chunk
	// get a dedicated chunk of exactly their size.
	chunk int

	cur   []T   // current chunk; len = high-water mark of carved space
	used  [][]T // exhausted chunks awaiting reset
	spare [][]T // recycled chunks ready for reuse
}

// alloc carves a slice with length 0 and capacity n from the arena. The
// caller appends at most n elements; appending beyond n falls back to the
// heap via the ordinary append growth path (correct, merely allocating).
//
//rstknn:hotpath one carve per bound evaluation in the steady state
func (a *arena[T]) alloc(n int) []T {
	if cap(a.cur)-len(a.cur) < n {
		a.grow(n)
	}
	off := len(a.cur)
	a.cur = a.cur[:off+n]
	return a.cur[off : off : off+n]
}

// grow is the arena's amortized cold path: it runs once per chunk, not
// once per carve, so its allocations are blessed below.
func (a *arena[T]) grow(n int) {
	if a.cur != nil {
		a.used = append(a.used, a.cur) //rstknn:allow hotalloc chunk bookkeeping, amortized over chunk-many carves
		a.cur = nil
	}
	// Best fit: take the smallest recycled chunk that holds the request.
	// A small carve then never takes the dedicated chunk a later large
	// carve needs, so re-running a query replays the previous run's
	// chunk assignment and allocates no fresh chunk.
	best := -1
	for i := range a.spare {
		if c := cap(a.spare[i]); c >= n && (best < 0 || c < cap(a.spare[best])) {
			best = i
		}
	}
	if best >= 0 {
		last := len(a.spare) - 1
		a.cur = a.spare[best]
		a.spare[best] = a.spare[last]
		a.spare[last] = nil
		a.spare = a.spare[:last]
		return
	}
	size := a.chunk
	if size < n {
		size = n
	}
	a.cur = make([]T, 0, size) //rstknn:allow hotalloc chunk allocation, recycled across queries by reset
}

// reset recycles every chunk. Previously carved slices become invalid.
func (a *arena[T]) reset() {
	if a.cur != nil {
		a.used = append(a.used, a.cur)
		a.cur = nil
	}
	for _, c := range a.used {
		a.spare = append(a.spare, c[:0])
	}
	a.used = a.used[:0]
}

// scratch is the per-worker reusable state of one search worker. It is
// owned by exactly one goroutine at a time, and only the owner carves
// from its arenas. Candidate expansion publishes carved slices to other
// workers through the round barrier. After that, parts and sibling-parts
// carves are only read, but a contributor list belongs to its group: the
// worker that decides the group may rewrite the list's elements in
// place (rebounds, replace), on memory distinct from any carve the owner
// makes later.
type scratch struct {
	// selLo/selHi are the kNN-bound selectors of the E-CIUR kNNU and
	// BoundTrace selections, reused so their heap storage is allocated
	// once.
	selLo, selHi kthSelector
	// parts backs every bound computation ([]part carves).
	parts arena[part]
	// contribs backs the long-lived contributor lists of groups.
	contribs arena[contributor]
	// sibParts backs the per-expansion sibling bounds that the child
	// groups' inherited lists reference (see inherited).
	sibParts arena[[]part]
	// kern holds the fixed side of the current bound pass, scattered by
	// term; every pass clears it before it ends.
	kern vector.Scatter
	// repl is the transient replacement buffer of refine(): replace()
	// copies it into the contribution list, so it never outlives a call.
	repl []contributor
	// hist is refinable's zeroed per-cluster histogram (E-CIUR entropy).
	hist []int
}

// Arena chunk sizes, in elements. A contributor is 40 bytes, so one
// contribs chunk holds several typical contribution lists.
const (
	partsChunk    = 1024
	contribsChunk = 2048
	sibPartsChunk = 256
)

// newScratch returns an empty scratch. Its arenas are not cleared on
// reset: part holds no pointers, a contributor's entry points into a
// shared decoded node, which is immutable and owned by the snapshot's
// bound cache, and sibling-parts headers point into the parts arena.
// A recycled chunk may keep such memory reachable until the slot is
// overwritten or the pool drops the scratch; nothing reads it in
// between.
func newScratch() *scratch {
	s := &scratch{}
	s.parts.chunk = partsChunk
	s.contribs.chunk = contribsChunk
	s.sibParts.chunk = sibPartsChunk
	return s
}

var scratchPool = sync.Pool{New: func() any { return newScratch() }}

// getScratch checks a warm scratch out of the pool.
func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// reset invalidates everything carved from the scratch and recycles its
// memory. Must only be called once every reference into the scratch's
// arenas is dead (query end).
func (s *scratch) reset() {
	s.parts.reset()
	s.contribs.reset()
	s.sibParts.reset()
	// repl is emptied by the call that fills it, and kern and hist are
	// left zeroed, so they stay warm across queries.
}

// release resets the scratch and returns it to the pool for the next
// query.
func (s *scratch) release() {
	s.reset()
	scratchPool.Put(s)
}

// allocParts carves a part slice from the scratch arena, or falls back to
// the heap when no scratch is threaded through (external callers of the
// bound helpers, e.g. white-box tests).
//
//rstknn:hotpath one carve per bound evaluation
func allocParts(sc *scratch, n int) []part {
	if sc != nil {
		return sc.parts.alloc(n)
	}
	return make([]part, 0, n) //rstknn:allow hotalloc heap fallback for scratch-less callers (tests)
}

// allocContribs mirrors allocParts for contributor slices. extra reserves
// growth headroom: contribution lists grow in place when a refinement
// replaces one contributor with a node's children, and headroom keeps
// those appends inside the arena instead of spilling to the heap.
//
//rstknn:hotpath one carve per candidate expansion
func allocContribs(sc *scratch, n, extra int) []contributor {
	if sc != nil {
		return sc.contribs.alloc(n + extra)
	}
	return make([]contributor, 0, n+extra) //rstknn:allow hotalloc heap fallback for scratch-less callers (tests)
}

// clusterHist returns the scratch's zeroed histogram of n cluster
// counts, or a fresh one when no scratch is threaded through.
func (s *scratch) clusterHist(n int) []int {
	if s == nil {
		return make([]int, n)
	}
	if cap(s.hist) < n {
		s.hist = make([]int, n) //rstknn:allow hotalloc grown once to the tree's cluster count, reused across queries
	}
	return s.hist[:n]
}
