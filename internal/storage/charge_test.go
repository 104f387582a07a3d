package storage

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// countingLog counts the ReadAt calls a store makes on its log.
type countingLog struct {
	r     io.ReaderAt
	calls int
}

func (c *countingLog) ReadAt(p []byte, off int64) (int, error) {
	c.calls++
	return c.r.ReadAt(p, off)
}

// openCounted writes blobs to a log, opens it, and counts the preads
// every later read issues.
func openCounted(t *testing.T, opts []Option, blobs ...[]byte) (*FileStore, *countingLog) {
	t.Helper()
	fs := openTestLog(t, opts, blobs...)
	log := &countingLog{r: fs.log}
	fs.log = log
	return fs, log
}

// poolScript is a fixed sequence of store operations: mostly reads,
// skewed toward low IDs so the pool both hits and evicts, with a Free
// and a Put that recycles the freed ID every 97 steps.
type poolScript struct {
	sizes []int // blob sizes of the log, ID by ID
	steps []poolStep
}

type poolStep struct {
	id  NodeID
	put int // > 0: Free id, then Put a blob of this size, which reuses id
}

func newPoolScript(seed int64, blobs, steps, maxSize int) poolScript {
	rng := rand.New(rand.NewSource(seed))
	sc := poolScript{sizes: make([]int, blobs)}
	for i := range sc.sizes {
		sc.sizes[i] = 1 + rng.Intn(maxSize)
	}
	for i := 0; i < steps; i++ {
		st := poolStep{id: NodeID(rng.Intn(1 + rng.Intn(blobs)))}
		if i%97 == 96 {
			st.put = 1 + rng.Intn(maxSize)
		}
		sc.steps = append(sc.steps, st)
	}
	return sc
}

// run plays the script on a fresh store opened from its log, reading
// through read, and returns the read counters.
func (sc poolScript) run(t *testing.T, opts []Option, read func(*FileStore, NodeID) error) Stats {
	t.Helper()
	blobs := make([][]byte, len(sc.sizes)+1)
	for i, n := range sc.sizes {
		blobs[i] = bytes.Repeat([]byte{byte(i)}, n)
	}
	blobs[len(sc.sizes)] = []byte("extra") // writeTestLog's last blob
	fs := openTestLog(t, opts, blobs...)
	for _, st := range sc.steps {
		if st.put > 0 {
			if err := fs.Free(st.id); err != nil {
				t.Fatal(err)
			}
			if id := fs.Put(make([]byte, st.put)); id != st.id {
				t.Fatalf("Put after Free(%d) took ID %d", st.id, id)
			}
		}
		if err := read(fs, st.id); err != nil {
			t.Fatal(err)
		}
	}
	return fs.Stats()
}

// TestPoolScriptCounters plays scripted ID sequences through a
// single-shard and a sharded pool, charging each read both through Charge
// and through GetTracked. The expected counters are the ones the pool
// gave when it still held each blob's bytes: a pool that keeps only
// (ID, pages) must evict exactly as that one did.
func TestPoolScriptCounters(t *testing.T) {
	charge := func(fs *FileStore, id NodeID) error { return fs.Charge(id, nil) }
	get := func(fs *FileStore, id NodeID) error {
		_, err := fs.GetTracked(id, nil)
		return err
	}
	for _, c := range []struct {
		name   string
		script poolScript
		pool   int
		want   Stats
	}{
		{"one shard", newPoolScript(1, 12, 600, 300), 6,
			Stats{Reads: 420, PagesRead: 1114, CacheHits: 180, Writes: 6, PagesWritten: 19}},
		{"two shards", newPoolScript(2, 150, 3000, 300), 160,
			Stats{Reads: 1233, PagesRead: 3530, CacheHits: 1767, Writes: 30, PagesWritten: 94}},
	} {
		opts := []Option{WithPageSize(64), WithBufferPool(c.pool)}
		if got := c.script.run(t, opts, charge); got != c.want {
			t.Errorf("%s through Charge: %+v, want %+v", c.name, got, c.want)
		}
		if got := c.script.run(t, opts, get); got != c.want {
			t.Errorf("%s through GetTracked: %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestChargeIssuesNoPread: Charge counts a pool hit or a read of the
// blob's pages without touching the log, and fails on an unknown or a
// freed ID as a read does.
func TestChargeIssuesNoPread(t *testing.T) {
	fs, log := openCounted(t, []Option{WithPageSize(64), WithBufferPool(3)},
		make([]byte, 10), make([]byte, 100), make([]byte, 150), make([]byte, 300))
	var tr Tracker
	for _, id := range []NodeID{0, 1, 0, 2, 1, 3, 3, 0} {
		if err := fs.Charge(id, &tr); err != nil {
			t.Fatal(err)
		}
	}
	if log.calls != 0 {
		t.Errorf("8 charges issued %d preads, want 0", log.calls)
	}
	// Pool of 3 pages: 0 (1 page) misses, 1 (2 pages) misses, 0 hits,
	// 2 (3 pages) misses and evicts both, 1 misses and evicts 2, 3 (5
	// pages) is never pooled, 0 misses and evicts 1.
	want := Stats{Reads: 7, PagesRead: 1 + 2 + 3 + 2 + 5 + 5 + 1, CacheHits: 1}
	if got := tr.Stats(); got != want {
		t.Errorf("tracker %+v, want %+v", got, want)
	}
	if got := fs.Stats(); got != want {
		t.Errorf("store %+v, want %+v", got, want)
	}
	if err := fs.Charge(4, nil); err == nil || errors.Is(err, ErrFreed) {
		t.Errorf("Charge of an unknown ID: %v, want an unknown-node error", err)
	}
	if err := fs.Free(1); err != nil {
		t.Fatal(err)
	}
	if err := fs.Charge(1, nil); !errors.Is(err, ErrFreed) {
		t.Errorf("Charge of a freed ID: %v, want ErrFreed", err)
	}
	if got := fs.Stats(); got != want {
		t.Errorf("failed charges moved the counters to %+v", got)
	}
}

// TestFetchPreadsOncePerCall: Fetch reads a logged blob with one pread
// per call, pooled or not, reads a blob Put after the open from memory,
// and charges nothing.
func TestFetchPreadsOncePerCall(t *testing.T) {
	blobs := [][]byte{[]byte("zero"), []byte("one"), []byte("two")}
	fs, log := openCounted(t, []Option{WithPageSize(64), WithBufferPool(8)}, blobs...)
	for round := 1; round <= 2; round++ {
		for id, want := range blobs {
			got, err := fs.Fetch(NodeID(id))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Fetch(%d) = %q, %v; want %q", id, got, err, want)
			}
		}
		if want := round * len(blobs); log.calls != want {
			t.Errorf("round %d: %d preads, want %d", round, log.calls, want)
		}
	}
	id := fs.Put([]byte("three"))
	before := fs.Stats()
	if got, err := fs.Fetch(id); err != nil || string(got) != "three" {
		t.Fatalf("Fetch of a Put blob = %q, %v", got, err)
	}
	if log.calls != 2*len(blobs) {
		t.Errorf("Fetch of a blob in memory issued a pread")
	}
	if got := fs.Stats(); got != before {
		t.Errorf("Fetch charged I/O: %+v -> %+v", before, got)
	}
	if _, err := fs.Fetch(NodeID(len(blobs) + 1)); err == nil {
		t.Error("Fetch of an unknown ID succeeded")
	}
}
