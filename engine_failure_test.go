package rstknn

import (
	"math/rand"
	"testing"

	"rstknn/internal/storage"
)

// TestQueryStorageErrorReleasesPin forces a storage failure in the middle
// of a query and checks the error path against the epoch reclaimer: the
// aborted query must release its pin, so the min-pinned-epoch frontier
// advances and nodes retired afterwards are reclaimed immediately instead
// of parking behind a wedged reader.
func TestQueryStorageErrorReleasesPin(t *testing.T) {
	eng, err := Build(genRestaurants(rand.New(rand.NewSource(11)), 300), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(50, 50, "sushi seafood", 3); err != nil {
		t.Fatalf("healthy query: %v", err)
	}

	// Corrupt every stored node blob: the next traversal dies decoding a
	// node mid-query. Update errors on recycled slots are irrelevant.
	// Queries read cached decodes, which stay valid because a stored
	// node never changes in place: its slot is rewritten only after the
	// reclaimer frees it and evicts its decode. Overwriting live slots
	// here, the test evicts the decodes as that hook does.
	store := eng.store.(*storage.Store)
	garbage := []byte{0xde, 0xad, 0xbe, 0xef}
	st, unpin := eng.pin()
	for id := 0; id < store.Len()+8; id++ {
		_ = store.Update(storage.NodeID(id), garbage)
		st.tree.InvalidateNode(storage.NodeID(id))
	}
	unpin()
	if _, err := eng.Query(50, 50, "sushi seafood", 3); err == nil {
		t.Fatal("query over corrupted storage succeeded")
	}

	// The failed query must not leak its pin.
	if pins := eng.rec.Stats().Pins; pins != 0 {
		t.Fatalf("failed query left %d pins registered", pins)
	}

	// With the frontier clear, retirement reclaims immediately.
	doomed := store.Put([]byte("doomed"))
	eng.rec.Retire([]storage.NodeID{doomed})
	if p := eng.rec.Stats().Pending; p != 0 {
		t.Fatalf("pending = %d after retire with no pins, want 0", p)
	}
	if _, err := store.GetTracked(doomed, nil); err == nil {
		t.Fatal("retired node is still readable; it should have been freed")
	}

	// Contrast: a live pin does hold the frontier — proving the previous
	// assertions measured the release, not a reclaimer that frees
	// unconditionally.
	_, release := eng.pin()
	parked := store.Put([]byte("parked"))
	eng.rec.Retire([]storage.NodeID{parked})
	if p := eng.rec.Stats().Pending; p != 1 {
		t.Fatalf("pending = %d under a live pin, want 1", p)
	}
	release()
	if p := eng.rec.Stats().Pending; p != 0 {
		t.Fatalf("pending = %d after release, want 0", p)
	}
}
