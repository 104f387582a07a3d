package storage

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := NewStore()
	a := s.Put([]byte("hello"))
	b := s.Put([]byte("world"))
	if a == b {
		t.Fatal("distinct blobs share an ID")
	}
	got, err := s.GetTracked(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("hello")) {
		t.Errorf("Get(a) = %q", got)
	}
	got, err = s.GetTracked(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("world")) {
		t.Errorf("Get(b) = %q", got)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestPutCopies(t *testing.T) {
	s := NewStore()
	buf := []byte("mutable")
	id := s.Put(buf)
	buf[0] = 'X'
	got, _ := s.GetTracked(id, nil)
	if got[0] != 'm' {
		t.Error("Put must copy the caller's buffer")
	}
}

func TestGetErrors(t *testing.T) {
	s := NewStore()
	if _, err := s.GetTracked(InvalidNode, nil); err == nil {
		t.Error("Get(InvalidNode) should fail")
	}
	if _, err := s.GetTracked(NodeID(0), nil); err == nil {
		t.Error("Get of unknown node should fail")
	}
}

func TestIOAccounting(t *testing.T) {
	s := NewStore(WithPageSize(100))
	small := s.Put(make([]byte, 50))  // 1 page
	large := s.Put(make([]byte, 250)) // 3 pages
	empty := s.Put(nil)               // still 1 page (a node occupies a page)
	st := s.Stats()
	if st.Writes != 3 || st.PagesWritten != 1+3+1 {
		t.Errorf("write stats = %+v", st)
	}
	s.ResetStats()
	s.GetTracked(small, nil)
	s.GetTracked(large, nil)
	s.GetTracked(large, nil)
	s.GetTracked(empty, nil)
	st = s.Stats()
	if st.Reads != 4 {
		t.Errorf("Reads = %d, want 4", st.Reads)
	}
	if st.PagesRead != 1+3+3+1 {
		t.Errorf("PagesRead = %d, want 8", st.PagesRead)
	}
	if st.CacheHits != 0 {
		t.Errorf("CacheHits = %d without a pool", st.CacheHits)
	}
}

func TestStatsSubAdd(t *testing.T) {
	a := Stats{Reads: 5, PagesRead: 9, CacheHits: 1, Writes: 2, PagesWritten: 3}
	b := Stats{Reads: 2, PagesRead: 4, CacheHits: 1, Writes: 1, PagesWritten: 1}
	d := a.Sub(b)
	if d.Reads != 3 || d.PagesRead != 5 || d.CacheHits != 0 || d.Writes != 1 || d.PagesWritten != 2 {
		t.Errorf("Sub = %+v", d)
	}
	if got := b.Add(d); got != a {
		t.Errorf("Add(Sub) != original: %+v", got)
	}
}

func TestBufferPoolHits(t *testing.T) {
	s := NewStore(WithPageSize(100), WithBufferPool(10))
	id := s.Put(make([]byte, 80))
	s.ResetStats()
	s.GetTracked(id, nil) // Put primed the cache, so this is already a hit
	st := s.Stats()
	if st.CacheHits != 1 || st.Reads != 0 {
		t.Errorf("first read stats = %+v", st)
	}
	s.DropCache()
	s.ResetStats()
	s.GetTracked(id, nil) // cold
	s.GetTracked(id, nil) // warm
	st = s.Stats()
	if st.Reads != 1 || st.CacheHits != 1 {
		t.Errorf("cold/warm stats = %+v", st)
	}
}

func TestBufferPoolEviction(t *testing.T) {
	// Pool of 2 pages; three 1-page blobs force LRU eviction.
	s := NewStore(WithPageSize(100), WithBufferPool(2))
	a := s.Put(make([]byte, 10))
	b := s.Put(make([]byte, 10))
	c := s.Put(make([]byte, 10)) // evicts a (least recently used)
	s.ResetStats()
	s.GetTracked(a, nil)
	if st := s.Stats(); st.Reads != 1 {
		t.Errorf("a should have been evicted: %+v", st)
	}
	s.ResetStats()
	s.GetTracked(c, nil) // recently cached... but Get(a) above evicted b or c?
	// After Put(c): cache = {b, c}. Get(a): evicts b (LRU), cache = {c, a}.
	if st := s.Stats(); st.CacheHits != 1 {
		t.Errorf("c should be cached: %+v", st)
	}
	s.ResetStats()
	s.GetTracked(b, nil)
	if st := s.Stats(); st.Reads != 1 {
		t.Errorf("b should have been evicted: %+v", st)
	}
}

func TestBufferPoolOversizedBlob(t *testing.T) {
	s := NewStore(WithPageSize(100), WithBufferPool(2))
	big := s.Put(make([]byte, 1000)) // 10 pages: larger than the pool
	s.ResetStats()
	s.GetTracked(big, nil)
	s.GetTracked(big, nil)
	st := s.Stats()
	if st.Reads != 2 || st.CacheHits != 0 {
		t.Errorf("oversized blob must never be cached: %+v", st)
	}
}

func TestTotalPagesAndBytes(t *testing.T) {
	s := NewStore(WithPageSize(100))
	s.Put(make([]byte, 150)) // 2 pages
	s.Put(make([]byte, 100)) // 1 page
	s.Put(make([]byte, 1))   // 1 page
	if got := s.TotalPages(); got != 4 {
		t.Errorf("TotalPages = %d, want 4", got)
	}
	if got := s.TotalBytes(); got != 251 {
		t.Errorf("TotalBytes = %d, want 251", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore(WithBufferPool(4))
	ids := make([]NodeID, 32)
	for i := range ids {
		ids[i] = s.Put(make([]byte, 64))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				if _, err := s.GetTracked(ids[rng.Intn(len(ids))], nil); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestWithPageSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WithPageSize(0) should panic")
		}
	}()
	WithPageSize(0)
}
