package iurtree

import (
	"sync"
	"sync/atomic"

	"rstknn/internal/storage"
)

// The epoch-keyed decoded-node cache (the "bound cache").
//
// A decoded node — fixed entry fields, per-entry envelopes and cluster
// summaries, the inputs of every bound the search computes — is
// query-independent: it changes only when the node itself is rewritten,
// and copy-on-write updates never rewrite a node in place (they retire
// it and write a fresh one under a new or recycled NodeID). That makes
// NodeID a sound memoization key for the decode, with one lifetime rule:
// the entry must be evicted before the reclaimer frees the node, because
// a freed slot can be recycled by a later update. The engine wires
// exactly that through Reclaimer.SetOnFree -> Snapshot.InvalidateNode,
// and the reclaimer only frees once no pinned reader can still reach the
// node. Eviction by capacity may drop a node mid-query; the query keeps
// its reference, and the node stays immutable and reachable until the
// garbage collector sees the last reference go.
//
// A cache hit does NOT skip the simulated page I/O: on a hit
// ReadSharedTracked still charges the read (storage.Blobs.Charge), so
// nodes-read and page-access accounting — the paper's cost model — are
// bit-identical with the cache on or off. Only a miss fetches the blob
// (storage.Blobs.GetTracked). A hit saves the fetch (on a FileStore, a
// pread into a new buffer), the decode and their allocations.
//
// The cache is shared by every snapshot derived from the one that
// created it (derive() copies the pointer), so BatchQuery hits across
// queries and the write path's successors keep the warm entries that
// survived retirement.

// DefaultBoundCacheNodes is the bound-cache capacity Build and Open
// enable unless the caller overrides it with SetBoundCache. It covers
// every node of a paper-scale tree (100k objects at fan-out 32 is about
// 3.3k nodes), so steady-state queries decode each node once.
const DefaultBoundCacheNodes = 4096

// boundCache memoizes decoded nodes by NodeID. Sharded by NodeID so
// concurrent queries do not serialize on one mutex; the hit
// path takes only a read lock and one atomic store (the second-chance
// bit), keeping it provably allocation-free.
type boundCache struct {
	shards []boundCacheShard
	mask   uint32 // len(shards)-1; shard count is a power of two
	hits   atomic.Int64
	misses atomic.Int64
}

type boundCacheShard struct {
	mu       sync.RWMutex
	capacity int
	index    map[storage.NodeID]*boundCacheEntry
}

// boundCacheEntry is immutable after insertion except for the atomic
// second-chance bit, so readers may use it after dropping the shard
// lock; put replaces the whole entry instead of mutating it.
type boundCacheEntry struct {
	node *Node
	hot  atomic.Bool
}

const (
	maxBoundCacheShards   = 8
	minBoundNodesPerShard = 16
)

func newBoundCache(capacity int) *boundCache {
	n := 1
	for n < maxBoundCacheShards && capacity/(n*2) >= minBoundNodesPerShard {
		n *= 2
	}
	c := &boundCache{shards: make([]boundCacheShard, n), mask: uint32(n - 1)}
	per := capacity / n
	extra := capacity % n
	for i := range c.shards {
		sh := &c.shards[i]
		sh.capacity = per
		if i < extra {
			sh.capacity++
		}
		if sh.capacity < 1 {
			sh.capacity = 1
		}
		sh.index = make(map[storage.NodeID]*boundCacheEntry)
	}
	return c
}

func (c *boundCache) shardFor(id storage.NodeID) *boundCacheShard {
	return &c.shards[uint32(id)&c.mask]
}

// get returns the cached decode of a node, marking it recently used.
//
//rstknn:hotpath bound-cache lookup: one map probe per node read on the query path
func (c *boundCache) get(id storage.NodeID) (*Node, bool) {
	sh := c.shardFor(id)
	sh.mu.RLock()
	e := sh.index[id]
	sh.mu.RUnlock()
	if e == nil {
		c.misses.Add(1)
		return nil, false
	}
	e.hot.Store(true)
	c.hits.Add(1)
	return e.node, true
}

// put inserts (or replaces) a node's decode, evicting cold
// entries past the shard capacity by second chance: entries touched
// since the last sweep survive one round.
func (c *boundCache) put(id storage.NodeID, n *Node) {
	sh := c.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := &boundCacheEntry{node: n}
	e.hot.Store(true)
	sh.index[id] = e
	for len(sh.index) > sh.capacity {
		var victim storage.NodeID
		found := false
		for k, cand := range sh.index {
			if k == id {
				continue // never evict the entry just inserted
			}
			if !cand.hot.Load() {
				victim, found = k, true
				break
			}
			cand.hot.Store(false)
		}
		if !found {
			for k := range sh.index {
				if k != id {
					victim, found = k, true
					break
				}
			}
		}
		if !found {
			return // capacity 1 shard holding only the fresh entry
		}
		delete(sh.index, victim)
	}
}

// invalidate drops the cached decode of one node. Called through
// Snapshot.InvalidateNode from the reclaimer's on-free hook.
func (c *boundCache) invalidate(id storage.NodeID) {
	sh := c.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.index, id)
}

// entries returns the number of cached nodes across all shards.
func (c *boundCache) entries() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.index)
		sh.mu.RUnlock()
	}
	return n
}

// contains reports whether a node's decode is cached (for tests and
// stats; takes the read lock only).
func (c *boundCache) contains(id storage.NodeID) bool {
	sh := c.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.index[id]
	return ok
}
