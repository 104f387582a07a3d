package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// FuzzOpenFileStore drives the record-log scan with arbitrary bytes. The
// open must either fail or succeed, never panic, and stay within
// allocbound.FileStore either way: a record header is untrusted, and the
// scan sizes its offset index from the ids it reads. A log the scan
// accepts must serve every record it indexed, and a Compact of it must
// reopen with the same contents.
func FuzzOpenFileStore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "blobs.log")
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		fs := openWithinBound(t, path, len(data))
		if fs == nil {
			return
		}
		blobs := make([][]byte, fs.Len())
		for id := range blobs {
			b, err := fs.GetTracked(NodeID(id), nil)
			if err != nil {
				fs.Close()
				t.Fatalf("opened log cannot serve record %d: %v", id, err)
			}
			blobs[id] = b
		}
		if err := fs.Compact(); err != nil {
			fs.Close()
			t.Fatalf("compacting an opened log failed: %v", err)
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenFileStore(path)
		if err != nil {
			t.Fatalf("reopening a compacted log failed: %v", err)
		}
		defer re.Close()
		if re.Len() != len(blobs) {
			t.Fatalf("compacted log holds %d records, want %d", re.Len(), len(blobs))
		}
		for id, want := range blobs {
			if got, err := re.GetTracked(NodeID(id), nil); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("record %d after compact: %q, %v; want %q", id, got, err, want)
			}
		}
	})
}

// TestWriteFileStoreFuzzCorpus regenerates the checked-in seed corpus
// from logs the store writes itself. Run with RSTKNN_WRITE_CORPUS=1 to
// refresh testdata.
func TestWriteFileStoreFuzzCorpus(t *testing.T) {
	if os.Getenv("RSTKNN_WRITE_CORPUS") == "" {
		t.Skip("set RSTKNN_WRITE_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	var seeds [][]byte
	for _, build := range []func(fs *FileStore) error{
		// Records of every small size, then empty ones.
		func(fs *FileStore) error {
			for i := 0; i < 12; i++ {
				fs.Put(bytes.Repeat([]byte{byte('a' + i)}, i))
			}
			return nil
		},
		// Superseded records: the last one under an id wins.
		func(fs *FileStore) error {
			a, b := fs.Put([]byte("v1")), fs.Put([]byte("other"))
			if err := fs.Update(a, []byte("version-two")); err != nil {
				return err
			}
			return fs.Update(b, nil)
		},
	} {
		path := filepath.Join(t.TempDir(), "blobs.log")
		fs, err := CreateFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := build(fs); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzOpenFileStore")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, "seed-"+strconv.Itoa(i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
