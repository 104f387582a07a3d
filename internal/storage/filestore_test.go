package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rstknn/internal/allocbound"
)

func newTestFileStore(t *testing.T, opts ...Option) *FileStore {
	t.Helper()
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "blobs.log"), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

func TestFileStoreImplementsBlobs(t *testing.T) {
	var _ Blobs = newTestFileStore(t)
	var _ Blobs = NewStore()
}

func TestFileStorePutGet(t *testing.T) {
	fs := newTestFileStore(t, WithPageSize(100))
	a := fs.Put([]byte("alpha"))
	b := fs.Put(make([]byte, 250))
	got, err := fs.GetTracked(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("alpha")) {
		t.Errorf("Get(a) = %q", got)
	}
	if fs.Len() != 2 {
		t.Errorf("Len = %d", fs.Len())
	}
	fs.ResetStats()
	fs.GetTracked(b, nil)
	st := fs.Stats()
	if st.Reads != 1 || st.PagesRead != 3 {
		t.Errorf("I/O accounting: %+v", st)
	}
	if _, err := fs.GetTracked(NodeID(99), nil); err == nil {
		t.Error("unknown node should fail")
	}
}

func TestFileStoreUpdate(t *testing.T) {
	fs := newTestFileStore(t)
	id := fs.Put([]byte("v1"))
	if err := fs.Update(id, []byte("version-two")); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.GetTracked(id, nil)
	if !bytes.Equal(got, []byte("version-two")) {
		t.Errorf("after update: %q", got)
	}
	if err := fs.Update(NodeID(42), nil); err == nil {
		t.Error("update of unknown node should fail")
	}
}

func TestFileStoreReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blobs.log")
	fs, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var ids []NodeID
	for i := 0; i < 20; i++ {
		ids = append(ids, fs.Put([]byte(fmt.Sprintf("blob-%d", i))))
	}
	fs.Update(ids[3], []byte("blob-3-updated"))
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 20 {
		t.Fatalf("reopened Len = %d", re.Len())
	}
	for i, id := range ids {
		want := fmt.Sprintf("blob-%d", i)
		if i == 3 {
			want = "blob-3-updated"
		}
		got, err := re.GetTracked(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("blob %d = %q, want %q", i, got, want)
		}
	}
}

func TestFileStoreOpenMissing(t *testing.T) {
	if _, err := OpenFileStore(filepath.Join(t.TempDir(), "nope.log")); err == nil {
		t.Error("opening a missing file should fail")
	}
}

// TestFileStoreOpenCorruptID: a record header whose node ID field holds
// garbage must fail the reopen scan. The pre-fix scan indexed offsets[id]
// straight off the decoded value — 0x80000000 flips negative as int32
// (index panic) and a large positive id grows the index without bound.
// The scan still ends in an error for an id it has grown the index to
// (the records below it are missing), so each open is also held to
// allocbound.FileStore. Ids stay at or below 1<<20: a scan that trusts
// the id allocates 16 B per id before any check can run.
func TestFileStoreOpenCorruptID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blobs.log")
	fs, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	fs.Put([]byte("payload"))
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint32{0x80000000, 0xFFFFFFFF, 1 << 20} {
		data := append([]byte(nil), pristine...)
		binary.LittleEndian.PutUint32(data, id)
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		if re := openWithinBound(t, path, len(data)); re != nil {
			re.Close()
			t.Errorf("OpenFileStore accepted corrupt record id %#x", id)
		}
	}
}

// TestFileStoreOpenTornRecord: a record whose declared payload runs past
// the end of the log (a torn final write, or a corrupt size field), or a
// log that ends inside a record header, must fail the reopen. The scan
// used to index the first and leave a later read to allocate the declared
// size, up to 2 GiB, before finding the file short; it skipped the second,
// and the next append landed after the torn bytes, so the reopen after it
// parsed them as a record header.
func TestFileStoreOpenTornRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blobs.log")
	fs, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	fs.Put([]byte("first"))
	fs.Put([]byte("second"))
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if re := openWithinBound(t, path, len(pristine)); re == nil {
		t.Fatal("OpenFileStore rejected a pristine log")
	} else {
		re.Close()
	}
	second := fileRecordHeader + len("first")
	for _, c := range []struct {
		what string
		data []byte
	}{
		{"a log cut inside its last payload", pristine[:len(pristine)-1]},
		{"a log ending in 3 bytes of a record header", append(append([]byte(nil), pristine...), 1, 0, 0)},
		{"a size field of 2 GiB - 1", func() []byte {
			d := append([]byte(nil), pristine...)
			binary.LittleEndian.PutUint32(d[second+4:], 1<<31-1)
			return d
		}()},
	} {
		if err := os.WriteFile(path, c.data, 0o666); err != nil {
			t.Fatal(err)
		}
		if re := openWithinBound(t, path, len(c.data)); re != nil {
			re.Close()
			t.Errorf("OpenFileStore accepted %s", c.what)
		}
	}
}

// openWithinBound opens the n-byte log at path, failing t if the open
// allocates more than allocbound.FileStore allows. It returns the store,
// or nil when the open fails.
func openWithinBound(t *testing.T, path string, n int) *FileStore {
	t.Helper()
	var fs *FileStore
	allocbound.Check(t, allocbound.FileStore, n, func() {
		if fs != nil { // Check may run the open twice
			fs.Close()
		}
		var err error
		if fs, err = OpenFileStore(path); err != nil {
			fs = nil
		}
	})
	return fs
}

func TestFileStoreCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blobs.log")
	fs, err := CreateFileStore(path, WithPageSize(64))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	id := fs.Put(make([]byte, 100))
	for i := 0; i < 10; i++ {
		if err := fs.Update(id, []byte(fmt.Sprintf("final-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	other := fs.Put([]byte("other"))
	before := fileSize(t, path)
	if err := fs.Compact(); err != nil {
		t.Fatal(err)
	}
	after := fileSize(t, path)
	if after >= before {
		t.Errorf("compact did not shrink the log: %d -> %d", before, after)
	}
	got, err := fs.GetTracked(id, nil)
	if err != nil || string(got) != "final-9" {
		t.Errorf("post-compact Get = %q, %v", got, err)
	}
	if got, _ := fs.GetTracked(other, nil); string(got) != "other" {
		t.Errorf("post-compact other = %q", got)
	}
	// Store still writable after compaction.
	third := fs.Put([]byte("third"))
	if got, _ := fs.GetTracked(third, nil); string(got) != "third" {
		t.Error("store unusable after compact")
	}
}

func TestFileStoreBufferPool(t *testing.T) {
	fs := newTestFileStore(t, WithPageSize(64), WithBufferPool(4))
	id := fs.Put([]byte("cached"))
	fs.ResetStats()
	fs.GetTracked(id, nil)
	if st := fs.Stats(); st.CacheHits != 1 {
		t.Errorf("Put should prime the pool: %+v", st)
	}
	fs.DropCache()
	fs.ResetStats()
	fs.GetTracked(id, nil)
	fs.GetTracked(id, nil)
	st := fs.Stats()
	if st.Reads != 1 || st.CacheHits != 1 {
		t.Errorf("cold/warm: %+v", st)
	}
}

func TestFileStoreTotals(t *testing.T) {
	fs := newTestFileStore(t, WithPageSize(100))
	fs.Put(make([]byte, 150))
	fs.Put(make([]byte, 10))
	if got := fs.TotalPages(); got != 3 {
		t.Errorf("TotalPages = %d", got)
	}
	if got := fs.TotalBytes(); got != 160 {
		t.Errorf("TotalBytes = %d", got)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
