// Package storage simulates the disk layer under the spatial-textual
// indexes. The RSTkNN paper evaluates algorithms by *simulated I/O*: every
// tree-node visit costs one page access, and loading a node whose payload
// spans b pages costs b accesses. This package provides exactly that
// model: a blob store with a fixed page size, per-read accounting, and an
// optional LRU buffer pool so both cold and warm query behaviour can be
// measured.
//
// Blobs are node-sized byte slices produced by the trees' serializers.
// Charging a read and fetching its bytes are separate calls: Charge
// counts the simulated I/O (a pool hit or the pages read) and moves no
// bytes, Fetch returns the bytes and charges nothing, and GetTracked is
// the two in turn. A reader that keeps its own decode of a node charges
// every read and fetches only when that decode is missing. The buffer
// pool therefore models which pages are resident, not their contents: it
// holds IDs and page counts, never bytes.
//
// The store is safe for concurrent use: reads take a shared lock, the
// global I/O counters live in a Tracker of the store's own (atomics),
// and the buffer pool is sharded by NodeID so concurrent queries do not
// serialize on one cache mutex. Every charge lands on the store's
// tracker and then on the caller's, when one is passed to Charge,
// GetTracked or PutTracked: the caller's attributes one query's cost,
// the store's keeps index-wide totals.
package storage

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
)

// DefaultPageSize matches the 4 KiB page used throughout the literature.
const DefaultPageSize = 4096

// NodeID identifies a stored blob. IDs are dense, starting at 0. Freed
// IDs are recycled by later Puts, so a NodeID names a slot, not a
// version: holding an ID across a Free is only safe under the epoch
// protocol (see Reclaimer).
type NodeID int32

// InvalidNode is the sentinel for "no node".
const InvalidNode NodeID = -1

// ErrFreed is wrapped by reads of a slot that was freed and not yet
// reused, and by a second Free of a slot.
var ErrFreed = errors.New("storage: node freed")

// Stats aggregates the simulated I/O counters of a Store.
type Stats struct {
	// Reads is the number of charged reads (Charge or GetTracked calls)
	// that missed the buffer pool.
	Reads int64
	// PagesRead is the number of pages transferred by those reads
	// (ceil(blobSize / pageSize) per read, minimum 1).
	PagesRead int64
	// CacheHits counts charged reads served by the buffer pool.
	CacheHits int64
	// Writes and PagesWritten mirror the read counters for Put.
	Writes       int64
	PagesWritten int64
}

// Add returns the sum of two stat snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:        s.Reads + o.Reads,
		PagesRead:    s.PagesRead + o.PagesRead,
		CacheHits:    s.CacheHits + o.CacheHits,
		Writes:       s.Writes + o.Writes,
		PagesWritten: s.PagesWritten + o.PagesWritten,
	}
}

// Sub returns the difference s - o. Note that deltas of the global
// counters are NOT a safe way to measure one query under concurrency —
// use a Tracker for per-query attribution.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:        s.Reads - o.Reads,
		PagesRead:    s.PagesRead - o.PagesRead,
		CacheHits:    s.CacheHits - o.CacheHits,
		Writes:       s.Writes - o.Writes,
		PagesWritten: s.PagesWritten - o.PagesWritten,
	}
}

// Tracker is the per-query execution context of the storage layer: every
// tracked read charges its simulated I/O here, so one query's cost can be
// measured exactly while other queries run against the same store. The
// zero value is ready to use. All methods are safe for concurrent use and
// nil-receiver safe (a nil tracker charges nothing).
type Tracker struct {
	reads        atomic.Int64
	pagesRead    atomic.Int64
	cacheHits    atomic.Int64
	writes       atomic.Int64
	pagesWritten atomic.Int64
}

// ChargeRead records one read transferring the given number of pages.
func (t *Tracker) ChargeRead(pages int64) {
	if t == nil {
		return
	}
	t.reads.Add(1)
	t.pagesRead.Add(pages)
}

// ChargeWrite records one blob write transferring the given number of
// pages — the mirror of ChargeRead for the update paths, so an insert or
// delete can report exactly the write I/O it caused.
func (t *Tracker) ChargeWrite(pages int64) {
	if t == nil {
		return
	}
	t.writes.Add(1)
	t.pagesWritten.Add(pages)
}

// ChargeCacheHit records one read served from a cache.
func (t *Tracker) ChargeCacheHit() {
	if t == nil {
		return
	}
	t.cacheHits.Add(1)
}

// Add charges every counter of s to the tracker, folding one query's
// I/O into a batch total.
func (t *Tracker) Add(s Stats) {
	if t == nil {
		return
	}
	t.reads.Add(s.Reads)
	t.pagesRead.Add(s.PagesRead)
	t.cacheHits.Add(s.CacheHits)
	t.writes.Add(s.Writes)
	t.pagesWritten.Add(s.PagesWritten)
}

// SharedReads returns 0.
//
// Deprecated: it counted the node reads a shared batch traversal served
// from one fetch, and batches no longer share a traversal.
func (t *Tracker) SharedReads() int64 { return 0 }

// Reads returns the number of reads that missed every cache.
func (t *Tracker) Reads() int64 {
	if t == nil {
		return 0
	}
	return t.reads.Load()
}

// PagesRead returns the pages transferred by the tracked reads.
func (t *Tracker) PagesRead() int64 {
	if t == nil {
		return 0
	}
	return t.pagesRead.Load()
}

// CacheHits returns the reads served from a cache.
func (t *Tracker) CacheHits() int64 {
	if t == nil {
		return 0
	}
	return t.cacheHits.Load()
}

// Writes returns the number of tracked blob writes.
func (t *Tracker) Writes() int64 {
	if t == nil {
		return 0
	}
	return t.writes.Load()
}

// PagesWritten returns the pages transferred by the tracked writes.
func (t *Tracker) PagesWritten() int64 {
	if t == nil {
		return 0
	}
	return t.pagesWritten.Load()
}

// Stats returns the tracker's counters as a Stats snapshot.
func (t *Tracker) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Reads:        t.Reads(),
		PagesRead:    t.PagesRead(),
		CacheHits:    t.CacheHits(),
		Writes:       t.Writes(),
		PagesWritten: t.PagesWritten(),
	}
}

// Reset zeroes the tracker so it can be reused for another query.
func (t *Tracker) Reset() {
	if t == nil {
		return
	}
	t.reads.Store(0)
	t.pagesRead.Store(0)
	t.cacheHits.Store(0)
	t.writes.Store(0)
	t.pagesWritten.Store(0)
}

// Blobs is the storage abstraction the index layers build on: a blob
// store with simulated-I/O accounting. Store implements it; a FileStore
// is a Store opened from a log. Reads are safe for concurrent use;
// writes (Put/Retire/Free) must be issued by one writer at a time, but
// may run concurrently with readers — the copy-on-write update path
// never touches a blob a published snapshot references.
type Blobs interface {
	// Put stores a new blob and returns its NodeID, reusing a freed slot
	// when one is available.
	Put(data []byte) NodeID
	// PutTracked is Put with per-writer attribution: the write I/O is
	// charged to tr (when non-nil) in addition to the global counters.
	PutTracked(data []byte, tr *Tracker) NodeID
	// Charge charges the simulated I/O of reading the blob stored under
	// id without moving its bytes: a buffer-pool hit, or a read of the
	// blob's pages. The charge lands on the global counters and, when tr
	// is non-nil, on the caller's tracker. It fails as GetTracked does on
	// an unknown or freed ID.
	Charge(id NodeID, tr *Tracker) error
	// Fetch returns the blob stored under id and charges nothing; a blob
	// that lives in a log is read from it. The returned slice is
	// read-only.
	Fetch(id NodeID) ([]byte, error)
	// GetTracked is Charge followed by Fetch: it returns the blob stored
	// under id and charges its read. The returned slice is read-only.
	GetTracked(id NodeID, tr *Tracker) ([]byte, error)
	// Retire marks the blob as superseded garbage: it stays readable (a
	// pinned snapshot may still reference it) but no longer counts as
	// live. Free reclaims it once no reader can hold it.
	Retire(id NodeID)
	// Free reclaims a slot: the blob becomes unreadable (reads return
	// ErrFreed) and the ID is recycled by a later Put.
	Free(id NodeID) error
	// Stats returns a snapshot of the I/O counters.
	Stats() Stats
	// ResetStats zeroes the I/O counters.
	ResetStats()
	// DropCache empties the buffer pool, if any, so the next charge of
	// every blob is a read.
	DropCache()
	// PageSize returns the simulated page size in bytes.
	PageSize() int
	// Len returns the number of slots (live, retired, and freed).
	Len() int
	// TotalPages returns the page footprint of every non-freed blob,
	// including retired garbage awaiting reclamation.
	TotalPages() int64
	// TotalBytes returns the payload bytes of every non-freed blob.
	TotalBytes() int64
	// LivePages returns the page footprint of the blobs the current
	// index version references (TotalPages minus retired garbage).
	LivePages() int64
	// LiveBytes returns the payload bytes of those live blobs.
	LiveBytes() int64
}

// Store is a simulated disk: a table of slots, one per NodeID. A slot
// holds its blob in memory or, in a store opened from a log
// (OpenFileStore), the place of its record there. The zero value is not
// usable; call NewStore.
type Store struct {
	mu       sync.RWMutex // guards slots and free
	pageSize int
	slots    []slot
	free     NodeID      // head of the free list; InvalidNode when empty
	log      io.ReaderAt // the log in-log slots read from; nil for NewStore
	stats    Tracker     // the store-global I/O totals
	cache    *pool       // nil when no buffer pool is configured
}

// slotState is where a slot is in its lifecycle: live, retired
// (superseded garbage still readable by pinned snapshots), or freed
// (reclaimed, its ID on the free list).
type slotState uint8

const (
	slotLive slotState = iota
	slotRetired
	slotFreed
)

// slot is one NodeID's entry in a Store's slot table.
type slot struct {
	// data is the blob once a Put stored it: never nil then, even when
	// empty. It is nil while the blob is only in the log, and once the
	// slot is freed.
	data []byte
	// off is the offset of the blob's payload in the log; for a freed
	// slot, the next ID on the free list.
	off   int64
	size  int32 // the blob's length; 0 once freed
	state slotState
}

// inLog reports whether the slot's blob must be read from the log.
func (sl *slot) inLog() bool { return sl.data == nil && sl.size > 0 }

// Option configures a Store.
type Option func(*Store)

// WithPageSize overrides the default 4 KiB page size.
func WithPageSize(bytes int) Option {
	if bytes <= 0 {
		panic("storage: page size must be positive")
	}
	return func(s *Store) { s.pageSize = bytes }
}

// WithBufferPool enables an LRU buffer pool holding up to capacityPages
// pages worth of blobs. Charges served from the pool cost no simulated
// I/O. The pool tracks which blobs are resident and their page counts; it
// holds no bytes. Large pools are sharded by NodeID so concurrent readers
// do not contend on one mutex; small pools stay single-sharded and keep
// exact global LRU order.
func WithBufferPool(capacityPages int) Option {
	return func(s *Store) {
		if capacityPages > 0 {
			s.cache = newPool(capacityPages)
		}
	}
}

// NewStore returns an empty simulated disk.
func NewStore(opts ...Option) *Store {
	s := &Store{pageSize: DefaultPageSize, free: InvalidNode}
	for _, o := range opts {
		o(s)
	}
	return s
}

// PageSize returns the configured page size in bytes.
func (s *Store) PageSize() int { return s.pageSize }

// Len returns the number of slots.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.slots)
}

// footprint is the page and byte size of a store's non-freed blobs, and
// of the live ones among them.
type footprint struct {
	pages, bytes, livePages, liveBytes int64
}

// footprint walks the slot table once.
func (s *Store) footprint() footprint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var f footprint
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.state == slotFreed {
			continue
		}
		pages := int64(s.pagesFor(int(sl.size)))
		f.pages += pages
		f.bytes += int64(sl.size)
		if sl.state == slotLive {
			f.livePages += pages
			f.liveBytes += int64(sl.size)
		}
	}
	return f
}

// TotalPages returns the total page footprint of all non-freed blobs —
// the simulated index size on disk, including retired garbage that
// awaits reclamation.
func (s *Store) TotalPages() int64 { return s.footprint().pages }

// TotalBytes returns the summed sizes of all non-freed blobs.
func (s *Store) TotalBytes() int64 { return s.footprint().bytes }

// LivePages returns the page footprint of the blobs the current index
// version references: TotalPages minus retired-but-unreclaimed garbage.
func (s *Store) LivePages() int64 { return s.footprint().livePages }

// LiveBytes returns the payload bytes of the live blobs.
func (s *Store) LiveBytes() int64 { return s.footprint().liveBytes }

func (s *Store) pagesFor(size int) int {
	if size <= 0 {
		return 1
	}
	return (size + s.pageSize - 1) / s.pageSize
}

// Put stores a new blob and returns its NodeID, reusing a freed slot
// when one is available. The blob is copied.
func (s *Store) Put(data []byte) NodeID { return s.PutTracked(data, nil) }

// PutTracked is Put with per-writer attribution: the write I/O lands on
// the global counters and, when tr is non-nil, on the caller's tracker.
// The blob stays in memory; a store opened from a log never writes it.
func (s *Store) PutTracked(data []byte, tr *Tracker) NodeID {
	b := cloneBytes(data)
	s.mu.Lock()
	id := s.free
	if id != InvalidNode {
		s.free = NodeID(s.slots[id].off)
		s.slots[id] = slot{data: b, size: int32(len(b))}
	} else {
		id = NodeID(len(s.slots))
		s.slots = append(s.slots, slot{data: b, size: int32(len(b))})
	}
	s.mu.Unlock()
	pages := s.pagesFor(len(b))
	s.stats.ChargeWrite(int64(pages))
	tr.ChargeWrite(int64(pages))
	if s.cache != nil {
		s.cache.put(id, pages)
	}
	return id
}

// Retire marks the blob as superseded garbage: still readable for
// pinned snapshots, excluded from LivePages/LiveBytes. Retiring a freed
// or unknown slot is a no-op.
func (s *Store) Retire(id NodeID) {
	s.mu.Lock()
	if int(id) >= 0 && int(id) < len(s.slots) && s.slots[id].state == slotLive {
		s.slots[id].state = slotRetired
	}
	s.mu.Unlock()
}

// Free reclaims a slot: the payload is dropped, reads return ErrFreed,
// and the ID is recycled by a later Put. Freeing twice is an error.
func (s *Store) Free(id NodeID) error {
	s.mu.Lock()
	if int(id) < 0 || int(id) >= len(s.slots) {
		s.mu.Unlock()
		return fmt.Errorf("storage: free of unknown node %d", id)
	}
	if s.slots[id].state == slotFreed {
		s.mu.Unlock()
		return fmt.Errorf("storage: double free of node %d: %w", id, ErrFreed)
	}
	s.slots[id] = slot{off: int64(s.free), state: slotFreed}
	s.free = id
	s.mu.Unlock()
	if s.cache != nil {
		s.cache.remove(id)
	}
	return nil
}

// readSlot returns a copy of id's slot, failing on an unknown or freed ID.
func (s *Store) readSlot(id NodeID) (slot, error) {
	s.mu.RLock()
	if int(id) < 0 || int(id) >= len(s.slots) {
		s.mu.RUnlock()
		return slot{}, fmt.Errorf("storage: read of unknown node %d", id)
	}
	sl := s.slots[id]
	s.mu.RUnlock()
	if sl.state == slotFreed {
		return slot{}, fmt.Errorf("storage: read of node %d: %w", id, ErrFreed)
	}
	return sl, nil
}

// Charge charges the simulated I/O of reading the blob stored under id
// and moves no bytes. A blob the buffer pool holds costs a cache hit;
// any other costs a read of its pages, which then enter the pool. The
// charge lands on the global counters and, when tr is non-nil, on the
// caller's tracker.
func (s *Store) Charge(id NodeID, tr *Tracker) error {
	sl, err := s.readSlot(id)
	if err != nil {
		return err
	}
	pages := s.pagesFor(int(sl.size))
	if s.cache != nil && s.cache.access(id, pages) {
		s.stats.ChargeCacheHit()
		tr.ChargeCacheHit()
		return nil
	}
	s.stats.ChargeRead(int64(pages))
	tr.ChargeRead(int64(pages))
	return nil
}

// Fetch returns the blob stored under id and charges nothing. A blob
// that lives only in the log costs one ReadAt into a new buffer; any
// other is returned as stored. The returned slice must not be modified.
func (s *Store) Fetch(id NodeID) ([]byte, error) {
	sl, err := s.readSlot(id)
	if err != nil {
		return nil, err
	}
	if !sl.inLog() {
		return sl.data, nil
	}
	// The log never changes under an open store, and os.File.ReadAt is
	// safe for concurrent use.
	b := make([]byte, sl.size)
	if _, err := s.log.ReadAt(b, sl.off); err != nil {
		return nil, fmt.Errorf("storage: reading node %d: %w", id, err)
	}
	return b, nil
}

// GetTracked returns the blob stored under id and charges its read:
// Charge followed by Fetch. The returned slice must not be modified.
func (s *Store) GetTracked(id NodeID, tr *Tracker) ([]byte, error) {
	if err := s.Charge(id, tr); err != nil {
		return nil, err
	}
	return s.Fetch(id)
}

// Stats returns a snapshot of the I/O counters.
func (s *Store) Stats() Stats { return s.stats.Stats() }

// ResetStats zeroes the I/O counters (e.g. after index construction, so
// query measurements start clean).
func (s *Store) ResetStats() { s.stats.Reset() }

// DropCache empties the buffer pool, simulating a cold start: the next
// charge of every blob is a read.
func (s *Store) DropCache() {
	if s.cache != nil {
		s.cache.clear()
	}
}

func cloneBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// ------------------------------------------------------------------
// Sharded buffer pool

const (
	// maxPoolShards bounds the shard count of a buffer pool.
	maxPoolShards = 16
	// minShardPages is the smallest per-shard page budget worth sharding
	// for: pools below 2*minShardPages stay single-sharded, preserving
	// exact global LRU semantics for tiny pools.
	minShardPages = 64
)

// pool is a buffer pool of pages, split into independently locked LRU
// shards keyed by NodeID so concurrent readers touch disjoint mutexes.
// It records which blobs are resident and how many pages each takes;
// its eviction order depends only on the sequence of IDs and page
// counts it sees.
type pool struct {
	shards []poolShard
	mask   uint32 // len(shards)-1; shard count is a power of two
}

type poolShard struct {
	mu  sync.Mutex
	lru *lru
}

func newPool(capacityPages int) *pool {
	n := 1
	for n < maxPoolShards && capacityPages/(n*2) >= minShardPages {
		n *= 2
	}
	p := &pool{shards: make([]poolShard, n), mask: uint32(n - 1)}
	per := capacityPages / n
	extra := capacityPages % n
	for i := range p.shards {
		c := per
		if i < extra {
			c++
		}
		p.shards[i].lru = newLRU(c, uint(bits.TrailingZeros(uint(n))))
	}
	return p
}

func (p *pool) shardFor(id NodeID) *poolShard {
	return &p.shards[uint32(id)&p.mask]
}

// access reports whether the pool holds id, marking it most recently
// used; a blob it does not hold enters it.
func (p *pool) access(id NodeID, pages int) bool {
	sh := p.shardFor(id)
	sh.mu.Lock()
	hit := sh.lru.access(id, pages)
	sh.mu.Unlock()
	return hit
}

// put makes id the most recently used blob, at the given page count.
func (p *pool) put(id NodeID, pages int) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	sh.lru.put(id, pages)
	sh.mu.Unlock()
}

// remove drops one blob from the pool (after its slot was freed), so a
// recycled NodeID starts cold.
func (p *pool) remove(id NodeID) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	sh.lru.remove(id)
	sh.mu.Unlock()
}

func (p *pool) clear() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.lru.clear()
		sh.mu.Unlock()
	}
}

// ------------------------------------------------------------------
// LRU shard

// lru is a page-budgeted LRU list of resident blobs: their IDs and page
// counts, never their bytes. The entries live in one slice and link by
// index, and evicted entries are reused, so a warm shard admits and
// evicts blobs without allocating. Callers synchronize.
type lru struct {
	capacity int // in pages
	used     int
	shift    uint       // a shard's IDs differ above their low shift bits
	at       []int32    // at[id>>shift] is id's entry; 0 when id is not resident
	ents     []lruEntry // ents[0] heads the ring: next is the most recent, prev the least
	free     int32      // first reusable entry, chained through next; 0 when none
}

type lruEntry struct {
	id         NodeID
	pages      int32
	prev, next int32
}

func newLRU(capacityPages int, shift uint) *lru {
	return &lru{capacity: capacityPages, shift: shift, ents: make([]lruEntry, 1)}
}

// entry returns id's entry, 0 when id is not resident.
func (c *lru) entry(id NodeID) int32 {
	if i := int(uint32(id) >> c.shift); i < len(c.at) {
		return c.at[i]
	}
	return 0
}

// access reports whether id is resident, making it the most recent
// entry; a blob that is not resident is admitted.
func (c *lru) access(id NodeID, pages int) bool {
	if e := c.entry(id); e != 0 {
		c.unlink(e)
		c.pushFront(e)
		return true
	}
	c.admit(id, pages)
	return false
}

// put makes id the most recent entry at the given page count.
func (c *lru) put(id NodeID, pages int) {
	e := c.entry(id)
	if e == 0 {
		c.admit(id, pages)
		return
	}
	c.used += pages - int(c.ents[e].pages)
	c.ents[e].pages = int32(pages)
	c.unlink(e)
	c.pushFront(e)
	c.evict()
}

// admit adds a blob that is not resident as the most recent entry and
// evicts from the least recent end past the budget. A blob larger than
// the whole shard is never admitted.
func (c *lru) admit(id NodeID, pages int) {
	if pages > c.capacity {
		return
	}
	e := c.free
	if e != 0 {
		c.free = c.ents[e].next
	} else {
		c.ents = append(c.ents, lruEntry{})
		e = int32(len(c.ents) - 1)
	}
	c.ents[e] = lruEntry{id: id, pages: int32(pages)}
	c.pushFront(e)
	i := int(uint32(id) >> c.shift)
	if i >= len(c.at) {
		c.at = append(c.at, make([]int32, i+1-len(c.at))...)
	}
	c.at[i] = e
	c.used += pages
	c.evict()
}

func (c *lru) evict() {
	for c.used > c.capacity {
		back := c.ents[0].prev
		if back == 0 {
			return
		}
		c.drop(back)
	}
}

func (c *lru) remove(id NodeID) {
	if e := c.entry(id); e != 0 {
		c.drop(e)
	}
}

// drop unlinks entry e and puts it on the free chain.
func (c *lru) drop(e int32) {
	c.unlink(e)
	ent := &c.ents[e]
	c.at[uint32(ent.id)>>c.shift] = 0
	c.used -= int(ent.pages)
	ent.next = c.free
	c.free = e
}

func (c *lru) unlink(e int32) {
	prev, next := c.ents[e].prev, c.ents[e].next
	c.ents[prev].next = next
	c.ents[next].prev = prev
}

func (c *lru) pushFront(e int32) {
	first := c.ents[0].next
	c.ents[e].prev, c.ents[e].next = 0, first
	c.ents[first].prev = e
	c.ents[0].next = e
}

func (c *lru) clear() {
	c.ents = c.ents[:1]
	c.ents[0] = lruEntry{}
	clear(c.at)
	c.used = 0
	c.free = 0
}
