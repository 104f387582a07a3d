package iurtree

import (
	"math/rand"
	"testing"

	"rstknn/internal/storage"
)

// warmBoundCache reads every node of the snapshot through the shared
// read (populating the bound cache) and returns the visited IDs.
func warmBoundCache(t *testing.T, tr *Snapshot) []storage.NodeID {
	t.Helper()
	var ids []storage.NodeID
	var walk func(id storage.NodeID)
	walk = func(id storage.NodeID) {
		ids = append(ids, id)
		n, err := tr.ReadSharedTracked(id, nil)
		if err != nil {
			t.Fatalf("ReadSharedTracked(%d): %v", id, err)
		}
		for i := range n.Entries {
			if !n.Entries[i].IsObject() {
				walk(n.Entries[i].Child)
			}
		}
	}
	walk(tr.RootID())
	return ids
}

func TestBoundCacheHitStillPaysIO(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	objs := randObjects(rng, 200, 20)
	store := storage.NewStore()
	tr, err := Build(objs, Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	var tk storage.Tracker
	if _, err := tr.ReadSharedTracked(tr.RootID(), &tk); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ReadSharedTracked(tr.RootID(), &tk); err != nil {
		t.Fatal(err)
	}
	// A bound cache hit re-decodes nothing but must still charge the simulated page I/O: the paper's
	// I/O counts may not depend on cache warmth.
	if tk.Reads() != 2 || tk.CacheHits() != 0 {
		t.Fatalf("tracker %+v, want 2 charged reads and no cache hits", tk.Stats())
	}
	st := tr.BoundCacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("bound cache stats %+v, want 1 hit 1 miss", st)
	}
}

// TestBoundCacheEvictedOnFree asserts a retired node's cached bounds are
// evicted through the reclaimer's on-free hook: freed slots are recycled
// by later inserts, so a stale entry under a reused NodeID would serve
// another node's bounds.
func TestBoundCacheEvictedOnFree(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	objs := randObjects(rng, 120, 20)
	tr, rec := growIUR(t, storage.NewStore(), objs[:100])

	warmBoundCache(t, tr)
	nt, retired, err := tr.Insert(objs[100], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(retired) == 0 {
		t.Fatal("insert retired nothing")
	}
	for _, id := range retired {
		if !tr.boundCache.contains(id) {
			t.Fatalf("node %d not cached before retirement", id)
		}
	}
	rec.Retire(retired) // no pinned readers: frees (and evicts) immediately
	for _, id := range retired {
		if nt.boundCache.contains(id) {
			t.Errorf("node %d still cached after free", id)
		}
	}
}

// TestBoundCacheSurvivesPinnedChurn asserts the flip side: while a
// pinned reader can still reach a retired snapshot, its cached bounds
// stay resident and readable, and eviction happens only at unpin.
func TestBoundCacheSurvivesPinnedChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	objs := randObjects(rng, 120, 20)
	tr, rec := growIUR(t, storage.NewStore(), objs[:100])

	warmBoundCache(t, tr)
	tok := rec.Pin() // a reader holding the pre-insert snapshot
	nt, retired, err := tr.Insert(objs[100], nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.Retire(retired)

	// The pin defers the frees: bounds stay cached and the old snapshot
	// still reads every retired node.
	for _, id := range retired {
		if !tr.boundCache.contains(id) {
			t.Fatalf("node %d evicted while still pinned", id)
		}
		if _, err := tr.ReadSharedTracked(id, nil); err != nil {
			t.Fatalf("pinned read of retired node %d: %v", id, err)
		}
	}

	rec.Release(tok)
	for _, id := range retired {
		if nt.boundCache.contains(id) {
			t.Errorf("node %d still in bound cache after unpin", id)
		}
	}
}

// TestSetBoundCacheDisable asserts the ablation knob: with the cache off
// every shared read decodes afresh and stats stay zero.
func TestSetBoundCacheDisable(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	objs := randObjects(rng, 100, 20)
	tr, err := Build(objs, Config{Store: storage.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	tr.SetBoundCache(0)
	var prev *Node
	for i := 0; i < 2; i++ {
		n, err := tr.ReadSharedTracked(tr.RootID(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(n.Entries) == 0 {
			t.Fatal("empty root node")
		}
		if n == prev {
			t.Fatal("disabled cache served the same decode twice")
		}
		prev = n
	}
	if st := tr.BoundCacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache has stats %+v", st)
	}
}

// TestBoundCacheEviction fills a tiny cache past capacity and checks the
// clock sweep keeps it bounded without ever evicting the entry it just
// inserted.
func TestBoundCacheEviction(t *testing.T) {
	c := newBoundCache(16) // below minBoundNodesPerShard: one shard, cap 16
	for id := storage.NodeID(0); id < 100; id++ {
		c.put(id, &Node{ID: id})
		if _, ok := c.get(id); !ok {
			t.Fatalf("entry %d evicted immediately after put", id)
		}
	}
	if n := c.entries(); n > 16 {
		t.Fatalf("cache holds %d entries, capacity 16", n)
	}
}
