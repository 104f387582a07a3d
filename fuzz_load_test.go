package rstknn

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// savePristineIndex builds a small engine and persists it, returning the
// directory and the bytes of each saved file. The fuzz target mutates
// index.log — the binary node store, the only file whose bytes reach the
// page-decode paths — and keeps the text sidecars pristine.
func savePristineIndex(tb testing.TB) (dir string, files map[string][]byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(77))
	eng, err := Build(genRestaurants(rng, 60), Options{})
	if err != nil {
		tb.Fatal(err)
	}
	dir = tb.TempDir()
	if err := eng.Save(dir); err != nil {
		tb.Fatal(err)
	}
	files = make(map[string][]byte)
	for _, name := range []string{"meta.json", "vocab.csv", "objects.csv", "index.log"} {
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			tb.Fatal(err)
		}
		files[name] = buf
	}
	return dir, files
}

// withNaNMaxD returns a copy of a saved index.log whose tree header
// stores a NaN normalization distance. maxD sits 54 bytes into the header
// blob: after the "IURT" magic, the version, four int32 fields and the
// space rect.
func withNaNMaxD(tb testing.TB, log []byte) []byte {
	tb.Helper()
	i := bytes.LastIndex(log, []byte("IURT"))
	if i < 0 || i+54+8 > len(log) {
		tb.Fatal("no tree header in index.log")
	}
	out := append([]byte(nil), log...)
	binary.LittleEndian.PutUint64(out[i+54:], math.Float64bits(math.NaN()))
	return out
}

// TestOpenRejectsNaNMaxD: an index whose header's normalization distance
// is NaN would answer every query with NaN spatial bounds, so Open must
// refuse it.
func TestOpenRejectsNaNMaxD(t *testing.T) {
	_, files := savePristineIndex(t)
	dir := t.TempDir()
	for name, content := range files {
		if name == "index.log" {
			content = withNaNMaxD(t, content)
		}
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := Open(dir)
	if err == nil {
		_ = eng.Close()
		t.Fatal("Open accepted an index whose header maxD is NaN")
	}
}

// FuzzLoad is the end-to-end corruption fuzz: arbitrary bytes replace
// the serialized index.log and Open must either reject the directory
// with an error or produce an engine whose queries fail cleanly — never
// a panic, and never an attacker-sized allocation (decoded counts are
// bounded by blob and file sizes before any make call).
func FuzzLoad(f *testing.F) {
	_, files := savePristineIndex(f)
	pristine := files["index.log"]

	f.Add([]byte{})
	f.Add(pristine)
	f.Add(pristine[:len(pristine)/2])
	flip := append([]byte(nil), pristine...)
	flip[0] ^= 0x80
	f.Add(flip)
	f.Add(withNaNMaxD(f, pristine))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for name, content := range files {
			if name == "index.log" {
				content = data
			}
			if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		eng, err := Open(dir)
		if err != nil {
			return // rejected cleanly — the only other acceptable outcome
		}
		// Accepted: corruption the eager open missed must surface as
		// query errors, not panics, when pages are read lazily.
		if res, err := eng.Query(50, 50, "pasta wine", 3); err == nil {
			_ = res.IDs
		}
		if err := eng.Close(); err != nil {
			t.Errorf("closing a loaded engine: %v", err)
		}
	})
}

// TestWriteLoadFuzzCorpus regenerates the checked-in seed corpus from a
// real saved index. Run with RSTKNN_WRITE_CORPUS=1 to refresh testdata.
func TestWriteLoadFuzzCorpus(t *testing.T) {
	if os.Getenv("RSTKNN_WRITE_CORPUS") == "" {
		t.Skip("set RSTKNN_WRITE_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	_, files := savePristineIndex(t)
	pristine := files["index.log"]
	truncated := pristine[:len(pristine)/3]
	wildCount := append([]byte(nil), pristine...)
	// Stamp an absurd length into the first record header's size field.
	wildCount[4], wildCount[5], wildCount[6], wildCount[7] = 0xFF, 0xFF, 0xFF, 0x7F
	seeds := [][]byte{
		pristine,
		truncated,
		wildCount,
		{},
		withNaNMaxD(t, pristine),
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzLoad")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		name := filepath.Join(dir, "seed-"+strconv.Itoa(i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
