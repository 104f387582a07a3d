package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// FuzzOpenFileStore drives the record-log scan with arbitrary bytes. The
// open must either fail or succeed, never panic, and stay within
// allocbound.FileStore either way: a record header is untrusted. A log
// the scan accepts must serve every non-empty record it indexed and read
// every empty one as a freed slot, and WriteLog of the opened store,
// whose extra blob takes the lowest freed slot, must reopen with the
// same contents.
func FuzzOpenFileStore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "blobs.log")
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		fs := openWithinBound(t, path, len(data))
		if fs == nil {
			return
		}
		defer fs.Close()
		blobs := make([][]byte, fs.Len())
		firstFree := len(blobs)
		for id := range blobs {
			b, err := fs.GetTracked(NodeID(id), nil)
			switch {
			case errors.Is(err, ErrFreed):
				firstFree = min(firstFree, id)
			case err != nil:
				t.Fatalf("opened log cannot serve record %d: %v", id, err)
			case len(b) == 0:
				t.Fatalf("opened log serves empty record %d as a live blob", id)
			}
			blobs[id] = b
		}
		extra := []byte("extra")
		again := filepath.Join(dir, "again.log")
		id, err := fs.WriteLog(again, extra)
		if err != nil {
			t.Fatalf("writing an opened log back failed: %v", err)
		}
		if int(id) != firstFree {
			t.Fatalf("WriteLog put the extra blob in slot %d, want %d", id, firstFree)
		}
		if firstFree == len(blobs) {
			blobs = append(blobs, nil)
		}
		blobs[id] = extra
		re, err := OpenFileStore(again)
		if err != nil {
			t.Fatalf("reopening a written-back log failed: %v", err)
		}
		defer re.Close()
		checkBlobs(t, re, blobs)
	})
}

// TestWriteFileStoreFuzzCorpus regenerates the checked-in seed-0 from a
// log WriteLog writes. Run with RSTKNN_WRITE_CORPUS=1 to refresh
// testdata. The checked-in seed-1 came from an append-on-update writer
// that no longer exists: its superseded records repeat an ID, so the
// open must reject it.
func TestWriteFileStoreFuzzCorpus(t *testing.T) {
	if os.Getenv("RSTKNN_WRITE_CORPUS") == "" {
		t.Skip("set RSTKNN_WRITE_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	// Records of every small size, then empty ones.
	s := NewStore()
	for i := 0; i < 11; i++ {
		s.Put(bytes.Repeat([]byte{byte('a' + i)}, i))
	}
	path := filepath.Join(t.TempDir(), "blobs.log")
	if _, err := s.WriteLog(path, bytes.Repeat([]byte{'l'}, 11)); err != nil {
		t.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzOpenFileStore")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
	if err := os.WriteFile(filepath.Join(dir, "seed-0"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}
