package rstknn

import (
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
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
	noPinsAtCleanup(t, eng)
	if _, err := eng.Query(50, 50, "sushi seafood", 3); err != nil {
		t.Fatalf("healthy query: %v", err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := eng.Save(dir); err != nil {
		t.Fatal(err)
	}

	// Corrupt every node record of the saved log, keeping the header:
	// the engine opens, and its first traversal dies decoding a node
	// read from disk mid-query.
	corruptNodeRecords(t, dir)
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	noPinsAtCleanup(t, re)
	defer re.Close()
	if _, err := re.Query(50, 50, "sushi seafood", 3); err == nil {
		t.Fatal("query over corrupted storage succeeded")
	}

	// The failed query must not leak its pin.
	if pins := re.snap.Stats().Pins; pins != 0 {
		t.Fatalf("failed query left %d pins registered", pins)
	}

	// With the frontier clear, retirement reclaims immediately.
	doomed := re.store.Put([]byte("doomed"))
	retire(t, re, doomed)
	if p := re.snap.Stats().Pending; p != 0 {
		t.Fatalf("pending = %d after retire with no pins, want 0", p)
	}
	if _, err := re.store.GetTracked(doomed, nil); err == nil {
		t.Fatal("retired node is still readable; it should have been freed")
	}

	// Contrast: a live pin does hold the frontier — proving the previous
	// assertions measured the release, not a reclaimer that frees
	// unconditionally.
	_, release := holdRead(t, re)
	parked := re.store.Put([]byte("parked"))
	retire(t, re, parked)
	if p := re.snap.Stats().Pending; p != 1 {
		t.Fatalf("pending = %d under a live pin, want 1", p)
	}
	release()
	if p := re.snap.Stats().Pending; p != 0 {
		t.Fatalf("pending = %d after release, want 0", p)
	}
}

// retire republishes e's current state and retires id with it, as an
// update that superseded id would.
func retire(t *testing.T, e *Engine, id storage.NodeID) {
	t.Helper()
	err := e.snap.Write(func(cur *engineState) (*engineState, []storage.NodeID, error) {
		return cur, []storage.NodeID{id}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// corruptNodeRecords overwrites the payload of every record in dir's
// index.log but the tree header's with 0xff bytes, keeping each record's
// size.
func corruptNodeRecords(t *testing.T, dir string) {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var meta persistMeta
	if err := json.Unmarshal(buf, &meta); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "index.log")
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nodes := 0
	for off := 0; off < len(log); {
		id := int32(binary.LittleEndian.Uint32(log[off:]))
		size := int(binary.LittleEndian.Uint32(log[off+4:]))
		off += 8
		if id != meta.HeaderID && size > 0 {
			for i := off; i < off+size; i++ {
				log[i] = 0xff
			}
			nodes++
		}
		off += size
	}
	if nodes == 0 {
		t.Fatal("index.log holds no node record")
	}
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
}
