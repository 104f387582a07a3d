package storage

import (
	"errors"
	"testing"
)

// putN fills the store with n one-page blobs and returns their IDs.
func putN(t *testing.T, s *Store, n int) []NodeID {
	t.Helper()
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = s.Put([]byte{byte(i), 1, 2, 3})
	}
	return ids
}

// TestReclaimerFreesImmediatelyWithoutPins pins the fast path: with no
// readers, Retire itself frees the batch.
func TestReclaimerFreesImmediatelyWithoutPins(t *testing.T) {
	s := NewStore()
	ids := putN(t, s, 3)
	r := NewReclaimer(s)

	r.Retire(ids[:2])
	st := r.Stats()
	if st.Pending != 0 || st.Freed != 2 {
		t.Fatalf("after unpinned retire: %+v, want pending 0 freed 2", st)
	}
	if _, err := s.GetTracked(ids[0], nil); !errors.Is(err, ErrFreed) {
		t.Fatalf("read of freed node: %v, want ErrFreed", err)
	}
	if _, err := s.GetTracked(ids[2], nil); err != nil {
		t.Fatalf("live node unreadable: %v", err)
	}
}

// TestReclaimerPinBlocksFree is the core safety property: a reader
// pinned before the retire keeps the batch alive until it releases.
func TestReclaimerPinBlocksFree(t *testing.T) {
	s := NewStore()
	ids := putN(t, s, 4)
	r := NewReclaimer(s)

	tok := r.Pin()
	r.Retire(ids[:2])
	if n := r.TryFree(); n != 0 {
		t.Fatalf("TryFree freed %d nodes under an older pin", n)
	}
	if st := r.Stats(); st.Pending != 2 || st.Pins != 1 {
		t.Fatalf("pinned stats %+v, want pending 2 pins 1", st)
	}
	// Retired-but-not-freed nodes must still be readable: the pinned
	// snapshot may traverse them.
	if _, err := s.GetTracked(ids[0], nil); err != nil {
		t.Fatalf("retired node unreadable while pinned: %v", err)
	}

	r.Release(tok)
	if st := r.Stats(); st.Pending != 0 || st.Freed != 2 {
		t.Fatalf("after release: %+v, want pending 0 freed 2", st)
	}
	if _, err := s.GetTracked(ids[0], nil); !errors.Is(err, ErrFreed) {
		t.Fatalf("read after release: %v, want ErrFreed", err)
	}
}

// TestReclaimerEpochOrdering checks the frontier math with overlapping
// pins: a batch is freed exactly when every reader pinned at-or-before
// its epoch has released, independent of release order.
func TestReclaimerEpochOrdering(t *testing.T) {
	s := NewStore()
	ids := putN(t, s, 6)
	r := NewReclaimer(s)

	early := r.Pin()   // epoch 0
	r.Retire(ids[0:2]) // batch at epoch 0
	late := r.Pin()    // epoch 1: after the first retire
	r.Retire(ids[2:4]) // batch at epoch 1
	if st := r.Stats(); st.Pending != 4 {
		t.Fatalf("pending = %d, want 4", st.Pending)
	}

	// Releasing the late pin frees nothing: the early pin still guards
	// both batches.
	r.Release(late)
	if st := r.Stats(); st.Pending != 4 {
		t.Fatalf("after late release: pending = %d, want 4", st.Pending)
	}

	// Releasing the early pin unblocks both.
	r.Release(early)
	if st := r.Stats(); st.Pending != 0 || st.Freed != 4 {
		t.Fatalf("after early release: %+v, want pending 0 freed 4", st)
	}
	for _, id := range ids[:4] {
		if _, err := s.GetTracked(id, nil); !errors.Is(err, ErrFreed) {
			t.Fatalf("node %d: %v, want ErrFreed", id, err)
		}
	}
	if _, err := s.GetTracked(ids[4], nil); err != nil {
		t.Fatalf("untouched node unreadable: %v", err)
	}
}

// TestReclaimerSamEpochPinsCounted checks that multiple readers pinned
// at the same epoch are reference-counted, not collapsed.
func TestReclaimerSameEpochPinsCounted(t *testing.T) {
	s := NewStore()
	ids := putN(t, s, 2)
	r := NewReclaimer(s)

	a, b := r.Pin(), r.Pin()
	r.Retire(ids[:1])
	r.Release(a)
	if st := r.Stats(); st.Pending != 1 || st.Pins != 1 {
		t.Fatalf("after first release: %+v, want pending 1 pins 1", st)
	}
	r.Release(b)
	if st := r.Stats(); st.Pending != 0 || st.Freed != 1 {
		t.Fatalf("after second release: %+v, want pending 0 freed 1", st)
	}
}

// TestReclaimerOnFreeHook checks the cache-invalidation hook fires once
// per node, before the slot is freed.
func TestReclaimerOnFreeHook(t *testing.T) {
	s := NewStore()
	ids := putN(t, s, 3)
	r := NewReclaimer(s)
	seen := map[NodeID]int{}
	r.SetOnFree(func(id NodeID) {
		seen[id]++
		// The hook runs just before Free: the slot is retired but the
		// payload must still be present.
		if _, err := s.GetTracked(id, nil); err != nil {
			t.Errorf("hook for %d: payload already gone: %v", id, err)
		}
	})
	r.Retire(ids)
	r.TryFree()
	for _, id := range ids {
		if seen[id] != 1 {
			t.Errorf("hook for node %d fired %d times, want 1", id, seen[id])
		}
	}
}

// version is a one-node stand-in for a published copy-on-write tree.
type version struct{ node NodeID }

// replaceNode is a writer that publishes a version reaching next and
// retires the node the current version reached.
func replaceNode(next NodeID) func(*version) (*version, []NodeID, error) {
	return func(cur *version) (*version, []NodeID, error) {
		return &version{node: next}, []NodeID{cur.node}, nil
	}
}

// TestVersionsPublishBeforeRetire: a reader that starts after a node is
// retired must not reach it. The onFree hook runs after the retire and
// before the free, so a Read from it must see the successor.
func TestVersionsPublishBeforeRetire(t *testing.T) {
	s := NewStore()
	ids := putN(t, s, 2)
	var v *Versions[version]
	var freed []NodeID
	v = NewVersions(s, &version{node: ids[0]}, func(id NodeID) {
		freed = append(freed, id)
		_ = v.Read(func(cur *version) error {
			if cur.node == id {
				t.Errorf("node %d is freed while the current version reaches it", id)
			}
			return nil
		})
	})
	if err := v.Write(replaceNode(ids[1])); err != nil {
		t.Fatal(err)
	}
	if len(freed) != 1 || freed[0] != ids[0] {
		t.Fatalf("freed %v, want [%d]", freed, ids[0])
	}
}

// TestVersionsReadPinsUntilReturn: a node retired while a Read runs
// stays readable until that Read returns, and is freed then.
func TestVersionsReadPinsUntilReturn(t *testing.T) {
	s := NewStore()
	ids := putN(t, s, 2)
	v := NewVersions(s, &version{node: ids[0]}, nil)
	err := v.Read(func(cur *version) error {
		if err := v.Write(replaceNode(ids[1])); err != nil {
			return err
		}
		if st := v.Stats(); st.Pending != 1 || st.Pins != 1 {
			t.Errorf("inside Read: %+v, want pending 1 pins 1", st)
		}
		_, err := s.GetTracked(cur.node, nil)
		return err
	})
	if err != nil {
		t.Fatalf("the pinned version's node: %v", err)
	}
	if st := v.Stats(); st.Pending != 0 || st.Pins != 0 || st.Freed != 1 {
		t.Fatalf("after Read: %+v, want pending 0 pins 0 freed 1", st)
	}
	if _, err := s.GetTracked(ids[0], nil); !errors.Is(err, ErrFreed) {
		t.Fatalf("retired node after Read: %v, want ErrFreed", err)
	}
}

// TestVersionsWriteWithoutSuccessor: a writer that returns no successor
// or an error publishes nothing and retires nothing.
func TestVersionsWriteWithoutSuccessor(t *testing.T) {
	s := NewStore()
	ids := putN(t, s, 1)
	first := &version{node: ids[0]}
	v := NewVersions(s, first, nil)
	boom := errors.New("boom")
	writers := []struct {
		fn   func(*version) (*version, []NodeID, error)
		want error
	}{
		{func(*version) (*version, []NodeID, error) { return nil, nil, nil }, nil},
		{func(*version) (*version, []NodeID, error) { return &version{}, ids, boom }, boom},
		{func(*version) (*version, []NodeID, error) { return nil, ids, nil }, errRetireUnpublished},
	}
	for i, w := range writers {
		if err := v.Write(w.fn); !errors.Is(err, w.want) {
			t.Errorf("writer %d: %v, want %v", i, err, w.want)
		}
		_ = v.Read(func(cur *version) error {
			if cur != first {
				t.Errorf("writer %d published %+v", i, cur)
			}
			return nil
		})
		if st := v.Stats(); st.Pending != 0 || st.Freed != 0 {
			t.Errorf("writer %d retired nodes: %+v", i, st)
		}
	}
}

// TestFreeSlotReuse pins the free-list contract: a freed slot is
// recycled by the next Put, Len does not grow, and the recycled slot
// serves the new payload.
func TestFreeSlotReuse(t *testing.T) {
	s := NewStore()
	ids := putN(t, s, 3)
	n := s.Len()

	s.Retire(ids[1])
	if err := s.Free(ids[1]); err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != n {
		t.Fatalf("Len after free = %d, want %d (slot retained)", got, n)
	}

	reused := s.Put([]byte("recycled"))
	if reused != ids[1] {
		t.Fatalf("Put reused slot %d, want freed slot %d", reused, ids[1])
	}
	if got := s.Len(); got != n {
		t.Fatalf("Len after reuse = %d, want %d", got, n)
	}
	data, err := s.GetTracked(reused, nil)
	if err != nil || string(data) != "recycled" {
		t.Fatalf("recycled slot read = %q, %v", data, err)
	}

	// Exhausted free list: the next Put appends a fresh slot.
	fresh := s.Put([]byte("fresh"))
	if int(fresh) != n {
		t.Fatalf("fresh Put got slot %d, want %d", fresh, n)
	}
}

// TestLiveVersusTotalAccounting checks that retiring and freeing move
// bytes out of the live counters while Put brings them back.
func TestLiveVersusTotalAccounting(t *testing.T) {
	s := NewStore()
	ids := putN(t, s, 4)
	total, live := s.TotalBytes(), s.LiveBytes()
	if total != live || total <= 0 {
		t.Fatalf("fresh store: total %d live %d, want equal and positive", total, live)
	}

	s.Retire(ids[0])
	if s.TotalBytes() != total {
		t.Errorf("retire changed TotalBytes: %d != %d", s.TotalBytes(), total)
	}
	if got := s.LiveBytes(); got >= live {
		t.Errorf("retire did not shrink LiveBytes: %d >= %d", got, live)
	}
	if err := s.Free(ids[0]); err != nil {
		t.Fatal(err)
	}
	afterFree := s.LiveBytes()
	if afterFree >= live {
		t.Errorf("free did not shrink LiveBytes: %d >= %d", afterFree, live)
	}
	if s.LivePages() >= 4 {
		t.Errorf("LivePages = %d, want < 4 after free", s.LivePages())
	}

	// Double free is an error.
	if err := s.Free(ids[0]); !errors.Is(err, ErrFreed) {
		t.Errorf("double free: %v, want ErrFreed", err)
	}

	// Reusing the slot restores the live accounting.
	s.Put([]byte{9, 9, 9, 9})
	if got := s.LiveBytes(); got <= afterFree {
		t.Errorf("reuse did not grow LiveBytes: %d <= %d", got, afterFree)
	}
}

// TestChargeWrite checks the write-side I/O attribution on both the
// tracker and the store-global counters.
func TestChargeWrite(t *testing.T) {
	s := NewStore()
	var tr Tracker
	s.PutTracked(make([]byte, s.PageSize()+1), &tr)
	if tr.Writes() != 1 || tr.PagesWritten() != 2 {
		t.Errorf("tracker writes %d pages %d, want 1 and 2", tr.Writes(), tr.PagesWritten())
	}
	st := s.Stats()
	if st.Writes != 1 || st.PagesWritten != 2 {
		t.Errorf("store stats writes %d pages %d, want 1 and 2", st.Writes, st.PagesWritten)
	}
	// Nil tracker still feeds the store-global counters.
	s.PutTracked([]byte{1}, nil)
	if got := s.Stats().Writes; got != 2 {
		t.Errorf("store writes = %d, want 2", got)
	}
}
