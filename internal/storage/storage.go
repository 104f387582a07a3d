// Package storage simulates the disk layer under the spatial-textual
// indexes. The RSTkNN paper evaluates algorithms by *simulated I/O*: every
// tree-node visit costs one page access, and loading a node whose payload
// spans b pages costs b accesses. This package provides exactly that
// model: a blob store with a fixed page size, per-read accounting, and an
// optional LRU buffer pool so both cold and warm query behaviour can be
// measured.
//
// Blobs are node-sized byte slices produced by the trees' serializers.
// The store is safe for concurrent use: reads take a shared lock, the
// global I/O counters are atomics, and the buffer pool is sharded by
// NodeID so concurrent queries do not serialize on one cache mutex.
// Per-query cost attribution goes through a Tracker passed to GetTracked;
// the global counters keep index-wide totals.
package storage

import (
	"container/list"
	"errors"
	"fmt"
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
// reused. Maintenance scans (persistence, compaction) detect it with
// errors.Is to emit tombstones instead of failing.
var ErrFreed = errors.New("storage: node freed")

// Stats aggregates the simulated I/O counters of a Store.
type Stats struct {
	// Reads is the number of GetTracked calls that missed the buffer pool.
	Reads int64
	// PagesRead is the number of pages transferred by those reads
	// (ceil(blobSize / pageSize) per read, minimum 1).
	PagesRead int64
	// CacheHits counts GetTracked calls served by the buffer pool.
	CacheHits int64
	// Writes and PagesWritten mirror the read counters for Put/Update.
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
	sharedReads  atomic.Int64
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

// ChargeSharedRead records one logical node read served by a physical
// read another consumer already paid for — the attribution used by
// shared-traversal batch execution, where one fetched node is scored
// against many queries. The physical I/O (ChargeRead/ChargeCacheHit) is
// charged exactly once, to the batch-level tracker; every query that
// consumes the node records one shared read here on its own tracker.
// Shared reads deliberately stay out of Stats: they are attribution
// bookkeeping, not additional I/O.
func (t *Tracker) ChargeSharedRead() {
	if t == nil {
		return
	}
	t.sharedReads.Add(1)
}

// SharedReads returns the logical reads served by batch-shared physical
// reads (see ChargeSharedRead).
func (t *Tracker) SharedReads() int64 {
	if t == nil {
		return 0
	}
	return t.sharedReads.Load()
}

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
	t.sharedReads.Store(0)
}

// counters are the store-global I/O totals, atomics so concurrent readers
// never contend on a stats mutex.
type counters struct {
	reads        atomic.Int64
	pagesRead    atomic.Int64
	cacheHits    atomic.Int64
	writes       atomic.Int64
	pagesWritten atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Reads:        c.reads.Load(),
		PagesRead:    c.pagesRead.Load(),
		CacheHits:    c.cacheHits.Load(),
		Writes:       c.writes.Load(),
		PagesWritten: c.pagesWritten.Load(),
	}
}

func (c *counters) reset() {
	c.reads.Store(0)
	c.pagesRead.Store(0)
	c.cacheHits.Store(0)
	c.writes.Store(0)
	c.pagesWritten.Store(0)
}

// chargeRead records a cache-missing read on the global counters and the
// tracker (if any).
func (c *counters) chargeRead(pages int64, t *Tracker) {
	c.reads.Add(1)
	c.pagesRead.Add(pages)
	t.ChargeRead(pages)
}

// chargeHit records a buffer-pool hit on the global counters and the
// tracker (if any).
func (c *counters) chargeHit(t *Tracker) {
	c.cacheHits.Add(1)
	t.ChargeCacheHit()
}

// chargeWrite records a blob write on the global counters and the
// tracker (if any).
func (c *counters) chargeWrite(pages int64, t *Tracker) {
	c.writes.Add(1)
	c.pagesWritten.Add(pages)
	t.ChargeWrite(pages)
}

// Blobs is the storage abstraction the index layers build on: a blob
// store with simulated-I/O accounting. Two implementations exist: the
// in-memory Store and the persistent FileStore. Both are safe for
// concurrent readers; writes (Put/Update/Retire/Free) must be issued by
// one writer at a time, but may run concurrently with readers — the
// copy-on-write update path never touches a blob a published snapshot
// references.
type Blobs interface {
	// Put stores a new blob and returns its NodeID, reusing a freed slot
	// when one is available.
	Put(data []byte) NodeID
	// PutTracked is Put with per-writer attribution: the write I/O is
	// charged to tr (when non-nil) in addition to the global counters.
	PutTracked(data []byte, tr *Tracker) NodeID
	// Update replaces the blob stored under id.
	Update(id NodeID, data []byte) error
	// GetTracked returns the blob stored under id, charging simulated
	// I/O unless a buffer pool holds it. The charge lands on the global
	// counters and, when tr is non-nil, on the caller's tracker. The
	// returned slice is read-only.
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
	// DropCache empties the buffer pool, if any.
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

// Store is a simulated disk. The zero value is not usable; call NewStore.
type Store struct {
	mu       sync.RWMutex // guards blobs+slot state (Store) / offsets+file (FileStore)
	pageSize int
	blobs    [][]byte
	stats    counters
	cache    *pool // nil when no buffer pool is configured

	// Slot lifecycle, shared with FileStore through embedding: a slot is
	// live, retired (superseded garbage still readable by pinned
	// snapshots), or freed (reclaimed, ID queued for reuse).
	retired []bool
	freed   []bool
	freeIDs []NodeID
}

// ensureSlotState grows the slot-state arrays to cover n slots. Caller
// holds the lock.
func (s *Store) ensureSlotState(n int) {
	for len(s.retired) < n {
		s.retired = append(s.retired, false)
		s.freed = append(s.freed, false)
	}
}

// takeFreeSlot pops a recycled NodeID, if any. Caller holds the lock.
func (s *Store) takeFreeSlot() (NodeID, bool) {
	if len(s.freeIDs) == 0 {
		return InvalidNode, false
	}
	id := s.freeIDs[len(s.freeIDs)-1]
	s.freeIDs = s.freeIDs[:len(s.freeIDs)-1]
	s.retired[id] = false
	s.freed[id] = false
	return id, true
}

// markRetired flags slot id as garbage. Caller holds the lock.
func (s *Store) markRetired(id NodeID, n int) {
	if int(id) < 0 || int(id) >= n {
		return
	}
	s.ensureSlotState(n)
	if !s.freed[id] {
		s.retired[id] = true
	}
}

// markFreed transitions slot id to freed and queues it for reuse.
// Caller holds the lock; returns false when already freed or unknown.
func (s *Store) markFreed(id NodeID, n int) bool {
	if int(id) < 0 || int(id) >= n {
		return false
	}
	s.ensureSlotState(n)
	if s.freed[id] {
		return false
	}
	s.freed[id] = true
	s.retired[id] = false
	s.freeIDs = append(s.freeIDs, id)
	return true
}

// slotFreed reports whether id is freed. Caller holds the lock.
func (s *Store) slotFreed(id NodeID) bool {
	return int(id) < len(s.freed) && s.freed[id]
}

// slotRetired reports whether id is retired. Caller holds the lock.
func (s *Store) slotRetired(id NodeID) bool {
	return int(id) < len(s.retired) && s.retired[id]
}

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
// pages worth of blobs. Reads served from the pool cost no simulated I/O.
// Large pools are sharded by NodeID so concurrent readers do not contend
// on one mutex; small pools stay single-sharded and keep exact global LRU
// order.
func WithBufferPool(capacityPages int) Option {
	return func(s *Store) {
		if capacityPages > 0 {
			s.cache = newPool(capacityPages)
		}
	}
}

// NewStore returns an empty simulated disk.
func NewStore(opts ...Option) *Store {
	s := &Store{pageSize: DefaultPageSize}
	for _, o := range opts {
		o(s)
	}
	return s
}

// PageSize returns the configured page size in bytes.
func (s *Store) PageSize() int { return s.pageSize }

// Len returns the number of stored blobs.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blobs)
}

// TotalPages returns the total page footprint of all non-freed blobs —
// the simulated index size on disk, including retired garbage that
// awaits reclamation.
func (s *Store) TotalPages() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for id, b := range s.blobs {
		if s.slotFreed(NodeID(id)) {
			continue
		}
		n += int64(s.pagesFor(len(b)))
	}
	return n
}

// TotalBytes returns the summed sizes of all non-freed blobs.
func (s *Store) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for id, b := range s.blobs {
		if s.slotFreed(NodeID(id)) {
			continue
		}
		n += int64(len(b))
	}
	return n
}

// LivePages returns the page footprint of the blobs the current index
// version references: TotalPages minus retired-but-unreclaimed garbage.
func (s *Store) LivePages() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for id, b := range s.blobs {
		if s.slotFreed(NodeID(id)) || s.slotRetired(NodeID(id)) {
			continue
		}
		n += int64(s.pagesFor(len(b)))
	}
	return n
}

// LiveBytes returns the payload bytes of the live blobs.
func (s *Store) LiveBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for id, b := range s.blobs {
		if s.slotFreed(NodeID(id)) || s.slotRetired(NodeID(id)) {
			continue
		}
		n += int64(len(b))
	}
	return n
}

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
func (s *Store) PutTracked(data []byte, tr *Tracker) NodeID {
	s.mu.Lock()
	id, reused := s.takeFreeSlot()
	if reused {
		s.blobs[id] = cloneBytes(data)
	} else {
		id = NodeID(len(s.blobs))
		s.blobs = append(s.blobs, cloneBytes(data))
		s.ensureSlotState(len(s.blobs))
	}
	b := s.blobs[id]
	s.mu.Unlock()
	s.stats.chargeWrite(int64(s.pagesFor(len(data))), tr)
	if s.cache != nil {
		s.cache.put(id, b, s.pagesFor(len(data)))
	}
	return id
}

// Retire marks the blob as superseded garbage: still readable for
// pinned snapshots, excluded from LivePages/LiveBytes. Retiring a freed
// or unknown slot is a no-op.
func (s *Store) Retire(id NodeID) {
	s.mu.Lock()
	s.markRetired(id, len(s.blobs))
	s.mu.Unlock()
}

// Free reclaims a slot: the payload is dropped, reads return ErrFreed,
// and the ID is recycled by a later Put. Freeing twice is an error.
func (s *Store) Free(id NodeID) error {
	s.mu.Lock()
	if int(id) < 0 || int(id) >= len(s.blobs) {
		s.mu.Unlock()
		return fmt.Errorf("storage: free of unknown node %d", id)
	}
	if !s.markFreed(id, len(s.blobs)) {
		s.mu.Unlock()
		return fmt.Errorf("storage: double free of node %d: %w", id, ErrFreed)
	}
	s.blobs[id] = nil
	s.mu.Unlock()
	if s.cache != nil {
		s.cache.remove(id)
	}
	return nil
}

// Update replaces the blob stored under id. The blob is copied.
func (s *Store) Update(id NodeID, data []byte) error {
	s.mu.Lock()
	if int(id) < 0 || int(id) >= len(s.blobs) {
		s.mu.Unlock()
		return fmt.Errorf("storage: update of unknown node %d", id)
	}
	if s.slotFreed(id) {
		s.mu.Unlock()
		return fmt.Errorf("storage: update of node %d: %w", id, ErrFreed)
	}
	s.blobs[id] = cloneBytes(data)
	b := s.blobs[id]
	s.mu.Unlock()
	s.stats.chargeWrite(int64(s.pagesFor(len(data))), nil)
	if s.cache != nil {
		s.cache.put(id, b, s.pagesFor(len(data)))
	}
	return nil
}

// GetTracked returns the blob stored under id, charging simulated I/O
// unless the buffer pool holds it. The charge lands on the global
// counters and, when tr is non-nil, on the caller's tracker. The
// returned slice must not be modified.
func (s *Store) GetTracked(id NodeID, tr *Tracker) ([]byte, error) {
	s.mu.RLock()
	if int(id) < 0 || int(id) >= len(s.blobs) {
		s.mu.RUnlock()
		return nil, fmt.Errorf("storage: read of unknown node %d", id)
	}
	if s.slotFreed(id) {
		s.mu.RUnlock()
		return nil, fmt.Errorf("storage: read of node %d: %w", id, ErrFreed)
	}
	b := s.blobs[id]
	s.mu.RUnlock()
	if s.cache != nil {
		if cached, ok := s.cache.get(id); ok {
			s.stats.chargeHit(tr)
			return cached, nil
		}
	}
	pages := s.pagesFor(len(b))
	s.stats.chargeRead(int64(pages), tr)
	if s.cache != nil {
		s.cache.put(id, b, pages)
	}
	return b, nil
}

// Stats returns a snapshot of the I/O counters.
func (s *Store) Stats() Stats { return s.stats.snapshot() }

// ResetStats zeroes the I/O counters (e.g. after index construction, so
// query measurements start clean).
func (s *Store) ResetStats() { s.stats.reset() }

// DropCache empties the buffer pool, simulating a cold start.
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

// pool is a buffer pool of blobs, split into independently locked LRU
// shards keyed by NodeID so concurrent readers touch disjoint mutexes.
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
		p.shards[i].lru = newLRU(c)
	}
	return p
}

func (p *pool) shardFor(id NodeID) *poolShard {
	return &p.shards[uint32(id)&p.mask]
}

func (p *pool) get(id NodeID) ([]byte, bool) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	b, ok := sh.lru.get(id)
	sh.mu.Unlock()
	return b, ok
}

func (p *pool) put(id NodeID, data []byte, pages int) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	sh.lru.put(id, data, pages)
	sh.mu.Unlock()
}

// remove drops one blob from the pool (after its slot was freed), so a
// recycled NodeID can never serve the previous occupant's bytes.
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

// lru is a page-budgeted LRU cache of blobs. Callers synchronize.
type lru struct {
	capacity int // in pages
	used     int
	order    *list.List // front = most recent; values are *lruEntry
	index    map[NodeID]*list.Element
}

type lruEntry struct {
	id    NodeID
	data  []byte
	pages int
}

func newLRU(capacityPages int) *lru {
	return &lru{
		capacity: capacityPages,
		order:    list.New(),
		index:    make(map[NodeID]*list.Element),
	}
}

func (c *lru) get(id NodeID) ([]byte, bool) {
	el, ok := c.index[id]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).data, true
}

func (c *lru) put(id NodeID, data []byte, pages int) {
	if el, ok := c.index[id]; ok {
		ent := el.Value.(*lruEntry)
		c.used += pages - ent.pages
		ent.data, ent.pages = data, pages
		c.order.MoveToFront(el)
		c.evict()
		return
	}
	if pages > c.capacity {
		return // blob larger than the whole shard: never cached
	}
	el := c.order.PushFront(&lruEntry{id: id, data: data, pages: pages})
	c.index[id] = el
	c.used += pages
	c.evict()
}

func (c *lru) evict() {
	for c.used > c.capacity {
		back := c.order.Back()
		if back == nil {
			return
		}
		ent := back.Value.(*lruEntry)
		c.order.Remove(back)
		delete(c.index, ent.id)
		c.used -= ent.pages
	}
}

func (c *lru) remove(id NodeID) {
	el, ok := c.index[id]
	if !ok {
		return
	}
	ent := el.Value.(*lruEntry)
	c.order.Remove(el)
	delete(c.index, id)
	c.used -= ent.pages
}

func (c *lru) clear() {
	c.order.Init()
	c.index = make(map[NodeID]*list.Element)
	c.used = 0
}
