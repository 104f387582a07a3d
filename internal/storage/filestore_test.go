package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rstknn/internal/allocbound"
)

// writeTestLog writes blobs to a new log at path through WriteLog, the
// last one as its extra blob, so record i holds blobs[i].
func writeTestLog(t *testing.T, path string, blobs ...[]byte) {
	t.Helper()
	s := NewStore()
	for _, b := range blobs[:len(blobs)-1] {
		s.Put(b)
	}
	if _, err := s.WriteLog(path, blobs[len(blobs)-1]); err != nil {
		t.Fatal(err)
	}
}

// openTestLog writes blobs to a log and opens it.
func openTestLog(t *testing.T, opts []Option, blobs ...[]byte) *FileStore {
	t.Helper()
	path := filepath.Join(t.TempDir(), "blobs.log")
	writeTestLog(t, path, blobs...)
	fs, err := OpenFileStore(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

// checkBlobs fails t unless s serves want[i] under ID i. An empty
// want[i] is a freed slot: its read must fail with ErrFreed.
func checkBlobs(t *testing.T, s Blobs, want [][]byte) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	for id, w := range want {
		got, err := s.GetTracked(NodeID(id), nil)
		if len(w) == 0 {
			if !errors.Is(err, ErrFreed) {
				t.Errorf("blob %d = %q, %v; want a freed slot", id, got, err)
			}
		} else if err != nil || !bytes.Equal(got, w) {
			t.Errorf("blob %d = %q, %v; want %q", id, got, err, w)
		}
	}
}

func TestFileStoreImplementsBlobs(t *testing.T) {
	var _ Blobs = openTestLog(t, nil, []byte("x"))
	var _ Blobs = NewStore()
}

func TestFileStorePutGet(t *testing.T) {
	fs := openTestLog(t, []Option{WithPageSize(100)}, []byte("alpha"), make([]byte, 250))
	got, err := fs.GetTracked(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("alpha")) {
		t.Errorf("Get(0) = %q", got)
	}
	if fs.Len() != 2 {
		t.Errorf("Len = %d", fs.Len())
	}
	fs.ResetStats()
	fs.GetTracked(1, nil)
	st := fs.Stats()
	if st.Reads != 1 || st.PagesRead != 3 {
		t.Errorf("I/O accounting: %+v", st)
	}
	if _, err := fs.GetTracked(NodeID(99), nil); err == nil {
		t.Error("unknown node should fail")
	}
	id := fs.Put([]byte("gamma"))
	if got, err := fs.GetTracked(id, nil); err != nil || string(got) != "gamma" {
		t.Errorf("Put after open: %q, %v", got, err)
	}
}

// TestFileStoreReopen writes a store with freed slots, reopens it,
// then writes the opened store — log slots, recycled slots and a new
// one — back and reopens that. A slot freed before the write is freed
// after the reopen, and the next Puts recycle it.
func TestFileStoreReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blobs.log")
	s := NewStore()
	var want [][]byte
	for i := 0; i < 20; i++ {
		want = append(want, []byte(fmt.Sprintf("blob-%d", i)))
		s.Put(want[i])
	}
	for _, id := range []NodeID{3, 7} {
		s.Retire(id)
		if err := s.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	want[3], want[7] = nil, []byte("extra")
	if id, err := s.WriteLog(path, want[7]); err != nil || id != 7 {
		t.Fatalf("WriteLog = %d, %v; want the last freed slot 7", id, err)
	}
	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkBlobs(t, re, want)

	re.Retire(5)
	if err := re.Free(5); err != nil {
		t.Fatal(err)
	}
	want[5] = []byte("recycled")
	if id := re.Put(want[5]); id != 5 {
		t.Fatalf("Put took slot %d, want the freed slot 5", id)
	}
	want[3] = []byte("reopened free slot")
	if id := re.Put(want[3]); id != 3 {
		t.Fatalf("Put took slot %d, want slot 3, freed before the reopen", id)
	}
	want = append(want, []byte("header"))
	again := filepath.Join(dir, "again.log")
	if id, err := re.WriteLog(again, want[20]); err != nil || id != 20 {
		t.Fatalf("WriteLog = %d, %v; want a new slot 20", id, err)
	}
	re2, err := OpenFileStore(again)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	checkBlobs(t, re2, want)
}

// TestFileStoreWritesStayInMemory: every write to an opened store lands
// in memory. The log file stays byte-identical, and reopening it serves
// the blobs it was opened with.
func TestFileStoreWritesStayInMemory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blobs.log")
	want := [][]byte{[]byte("zero"), []byte("one"), []byte("two")}
	writeTestLog(t, path, want...)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	fs.Retire(1)
	if err := fs.Free(1); err != nil {
		t.Fatal(err)
	}
	if id := fs.Put([]byte("recycled")); id != 1 {
		t.Fatalf("Put took slot %d, want the freed slot 1", id)
	}
	fresh := fs.Put([]byte("fresh"))
	checkBlobs(t, fs, [][]byte{want[0], []byte("recycled"), want[2], []byte("fresh")})
	if err := fs.Free(fresh); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, pristine) {
		t.Fatalf("writes to an opened store changed its log: %q -> %q (%v)", pristine, after, err)
	}
	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkBlobs(t, re, want)
}

// TestWriteLogOverOpenedLog: WriteLog onto the path a store was opened
// from replaces the file, and the store keeps serving the one it
// opened. WriteLog charges no I/O and leaves the buffer pool as it was.
func TestWriteLogOverOpenedLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blobs.log")
	want := [][]byte{[]byte("zero"), []byte("one"), []byte("two")}
	writeTestLog(t, path, want...)
	fs, err := OpenFileStore(path, WithPageSize(64), WithBufferPool(8))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	fs.GetTracked(0, nil)
	before := fs.Stats()
	if _, err := fs.WriteLog(path, []byte("three")); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats(); got != before {
		t.Errorf("WriteLog moved the I/O counters: %+v -> %+v", before, got)
	}
	checkBlobs(t, fs, want)
	if got := fs.Stats().Sub(before); got.CacheHits != 1 || got.Reads != 2 {
		t.Errorf("reads after WriteLog: %+v, want blob 0 pooled and 1, 2 cold", got)
	}
	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkBlobs(t, re, append(want, []byte("three")))
}

func TestFileStoreOpenMissing(t *testing.T) {
	if _, err := OpenFileStore(filepath.Join(t.TempDir(), "nope.log")); err == nil {
		t.Error("opening a missing file should fail")
	}
}

// TestFileStoreOpenCorruptID: a record whose node ID field is not its
// position in the log must fail the open. An early scan indexed
// offsets[id] straight off the decoded value — 0x80000000 flips negative
// as int32 (index panic) and a large positive id grew the index without
// bound — so each open is also held to allocbound.FileStore. A log that
// repeats an ID, the layout an append-on-update log once wrote, is
// rejected too.
func TestFileStoreOpenCorruptID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blobs.log")
	writeTestLog(t, path, []byte("payload"))
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint32{0x80000000, 0xFFFFFFFF, 1 << 20, 1} {
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
	superseded := append(append([]byte(nil), pristine...), pristine...)
	if err := os.WriteFile(path, superseded, 0o666); err != nil {
		t.Fatal(err)
	}
	if re := openWithinBound(t, path, len(superseded)); re != nil {
		re.Close()
		t.Error("OpenFileStore accepted a log whose second record carries id 0")
	}
}

// TestFileStoreOpenTornRecord: a record whose declared payload runs past
// the end of the log (a torn final write, or a corrupt size field), or a
// log that ends inside a record header, must fail the reopen. The scan
// used to index the first and leave a later read to allocate the declared
// size, up to 2 GiB, before finding the file short; it skipped the second.
func TestFileStoreOpenTornRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blobs.log")
	writeTestLog(t, path, []byte("first"), []byte("second"))
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

// TestFileStoreOpenEmptyRecords opens the densest valid log, one of
// empty records, within allocbound.FileStore: the slot table is
// allocated once, at its final size.
func TestFileStoreOpenEmptyRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blobs.log")
	blobs := make([][]byte, 10000)
	writeTestLog(t, path, blobs...)
	fs := openWithinBound(t, path, len(blobs)*fileRecordHeader)
	if fs == nil {
		t.Fatal("OpenFileStore rejected a log of empty records")
	}
	defer fs.Close()
	if fs.Len() != len(blobs) {
		t.Errorf("Len = %d, want %d", fs.Len(), len(blobs))
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

func TestFileStoreBufferPool(t *testing.T) {
	fs := openTestLog(t, []Option{WithPageSize(64), WithBufferPool(4)}, []byte("logged"))
	fs.GetTracked(0, nil)
	fs.GetTracked(0, nil)
	if st := fs.Stats(); st.Reads != 1 || st.CacheHits != 1 {
		t.Errorf("cold/warm: %+v", st)
	}
	id := fs.Put([]byte("cached"))
	fs.ResetStats()
	fs.GetTracked(id, nil)
	if st := fs.Stats(); st.CacheHits != 1 {
		t.Errorf("Put should prime the pool: %+v", st)
	}
}

func TestFileStoreTotals(t *testing.T) {
	fs := openTestLog(t, []Option{WithPageSize(100)}, make([]byte, 150), make([]byte, 10))
	if got := fs.TotalPages(); got != 3 {
		t.Errorf("TotalPages = %d", got)
	}
	if got := fs.TotalBytes(); got != 160 {
		t.Errorf("TotalBytes = %d", got)
	}
	fs.Retire(0)
	if got := fs.LivePages(); got != 1 {
		t.Errorf("LivePages after retire = %d", got)
	}
	if err := fs.Free(0); err != nil {
		t.Fatal(err)
	}
	fs.Put(make([]byte, 30))
	if got := fs.TotalBytes(); got != 40 {
		t.Errorf("TotalBytes after free and put = %d", got)
	}
}
