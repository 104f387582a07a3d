package storage

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestTrackerNilSafe(t *testing.T) {
	var tr *Tracker
	tr.ChargeRead(3)
	tr.ChargeCacheHit()
	tr.Reset()
	if tr.Reads() != 0 || tr.PagesRead() != 0 || tr.CacheHits() != 0 {
		t.Error("nil tracker must report zero")
	}
	if tr.Stats() != (Stats{}) {
		t.Error("nil tracker Stats must be zero")
	}
}

func TestTrackerAttribution(t *testing.T) {
	s := NewStore(WithPageSize(16))
	a := s.Put(make([]byte, 40)) // 3 pages
	b := s.Put(make([]byte, 10)) // 1 page
	s.ResetStats()

	var t1, t2 Tracker
	if _, err := s.GetTracked(a, &t1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetTracked(b, &t2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetTracked(b, &t2); err != nil {
		t.Fatal(err)
	}
	if t1.Reads() != 1 || t1.PagesRead() != 3 {
		t.Errorf("t1 = %d reads / %d pages, want 1/3", t1.Reads(), t1.PagesRead())
	}
	if t2.Reads() != 2 || t2.PagesRead() != 2 {
		t.Errorf("t2 = %d reads / %d pages, want 2/2", t2.Reads(), t2.PagesRead())
	}
	// The global counters carry the sum of both queries.
	global := s.Stats()
	if global.Reads != 3 || global.PagesRead != 5 {
		t.Errorf("global = %d reads / %d pages, want 3/5", global.Reads, global.PagesRead)
	}

	t1.Reset()
	if t1.Stats() != (Stats{}) {
		t.Error("Reset must zero the tracker")
	}
}

func TestTrackerCountsPoolHits(t *testing.T) {
	s := NewStore(WithBufferPool(8))
	id := s.Put([]byte("cached"))
	s.DropCache()
	s.ResetStats()

	var tr Tracker
	s.GetTracked(id, &tr) // cold: charged as a read
	s.GetTracked(id, &tr) // warm: charged as a hit
	if tr.Reads() != 1 || tr.CacheHits() != 1 {
		t.Errorf("tracker = %d reads / %d hits, want 1/1", tr.Reads(), tr.CacheHits())
	}
}

// TestTrackerAdd pins the batch total: Add folds another tracker's
// counters in, a nil tracker ignores it, and Reset clears the sum.
func TestTrackerAdd(t *testing.T) {
	var one Tracker
	one.ChargeRead(2)
	one.ChargeCacheHit()
	one.ChargeWrite(3)
	var nilTr *Tracker
	nilTr.Add(one.Stats())
	if nilTr.Stats() != (Stats{}) {
		t.Error("nil tracker must stay empty")
	}

	var sum Tracker
	sum.ChargeRead(1)
	sum.Add(one.Stats())
	sum.Add(one.Stats())
	want := Stats{Reads: 3, PagesRead: 5, CacheHits: 2, Writes: 2, PagesWritten: 6}
	if got := sum.Stats(); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
	sum.Reset()
	if got := sum.Stats(); got != (Stats{}) {
		t.Errorf("Stats = %+v after Reset, want zero", got)
	}
}

func TestPoolSharding(t *testing.T) {
	// Tiny pools stay single-sharded (exact LRU); big pools shard up to
	// the cap, and the per-shard budgets sum to the requested capacity.
	cases := []struct {
		capacity   int
		wantShards int
	}{
		{1, 1},
		{64, 1},
		{127, 1},
		{128, 2},
		{1 << 20, maxPoolShards},
	}
	for _, tc := range cases {
		p := newPool(tc.capacity)
		if len(p.shards) != tc.wantShards {
			t.Errorf("newPool(%d): %d shards, want %d", tc.capacity, len(p.shards), tc.wantShards)
		}
		total := 0
		for i := range p.shards {
			total += p.shards[i].lru.capacity
		}
		if total != tc.capacity {
			t.Errorf("newPool(%d): shard budgets sum to %d", tc.capacity, total)
		}
	}
}

func TestShardedPoolServesAllIDs(t *testing.T) {
	s := NewStore(WithPageSize(64), WithBufferPool(4096)) // sharded pool
	const n = 200
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = s.Put([]byte(fmt.Sprintf("blob-%03d", i)))
	}
	s.DropCache()
	s.ResetStats()
	for _, id := range ids { // cold pass fills every shard
		if _, err := s.GetTracked(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	var tr Tracker
	for i, id := range ids { // warm pass must hit across shards
		b, err := s.GetTracked(id, &tr)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("blob-%03d", i); !bytes.Equal(b, []byte(want)) {
			t.Fatalf("id %d returned %q, want %q", id, b, want)
		}
	}
	if tr.CacheHits() != n || tr.Reads() != 0 {
		t.Errorf("warm pass: %d hits / %d reads, want %d/0", tr.CacheHits(), tr.Reads(), n)
	}
}

func TestConcurrentTrackedReads(t *testing.T) {
	s := NewStore(WithPageSize(32), WithBufferPool(2048))
	const n = 128
	for i := 0; i < n; i++ {
		s.Put(make([]byte, 48)) // 2 pages each
	}
	s.DropCache()
	s.ResetStats()

	const goroutines = 8
	const rounds = 50
	trackers := make([]Tracker, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < n; i++ {
					id := NodeID((i*7 + g) % n)
					if _, err := s.GetTracked(id, &trackers[g]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Conservation: global totals equal the sum over trackers, and every
	// access is accounted exactly once (read or hit).
	var sum Stats
	for g := range trackers {
		sum = sum.Add(trackers[g].Stats())
	}
	global := s.Stats()
	if global.Reads != sum.Reads || global.PagesRead != sum.PagesRead || global.CacheHits != sum.CacheHits {
		t.Errorf("global %+v != tracker sum %+v", global, sum)
	}
	if total := sum.Reads + sum.CacheHits; total != goroutines*rounds*n {
		t.Errorf("accesses accounted = %d, want %d", total, goroutines*rounds*n)
	}
}
