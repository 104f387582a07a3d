package textual_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"rstknn/internal/allocbound"
	"rstknn/internal/textual"
)

// FuzzTextualPersist drives the vocabulary CSV codec with arbitrary
// bytes. Loading must never panic, and any input the loader accepts must
// survive a Save/Load cycle and reach a byte-stable Save after the first
// normalization (the loader tolerates CSV variations — quoting, \r\n —
// that Save writes canonically). The first load, accepting or
// rejecting, stays within allocbound.Vocabulary.
func FuzzTextualPersist(f *testing.F) {
	f.Add([]byte("docs,0\n"))
	f.Add([]byte("docs,3\nsushi,2\nnoodles,1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			v1  *textual.Vocabulary
			err error
		)
		allocbound.Check(t, allocbound.Vocabulary, len(data), func() {
			v1, err = textual.LoadVocabulary(bytes.NewReader(data))
		})
		if err != nil {
			return
		}
		var save1 bytes.Buffer
		if err := v1.Save(&save1); err != nil {
			t.Fatalf("saving a loaded vocabulary failed: %v", err)
		}
		v2, err := textual.LoadVocabulary(bytes.NewReader(save1.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved vocabulary failed: %v\nsaved: %q", err, save1.String())
		}
		var save2 bytes.Buffer
		if err := v2.Save(&save2); err != nil {
			t.Fatalf("re-saving failed: %v", err)
		}
		if !bytes.Equal(save1.Bytes(), save2.Bytes()) {
			t.Fatalf("save is not a fixed point:\nsave1: %q\nsave2: %q", save1.String(), save2.String())
		}
	})
}

// TestWriteTextualFuzzCorpus regenerates the checked-in seed corpus from
// a real vocabulary. Run with RSTKNN_WRITE_CORPUS=1 to refresh testdata.
func TestWriteTextualFuzzCorpus(t *testing.T) {
	if os.Getenv("RSTKNN_WRITE_CORPUS") == "" {
		t.Skip("set RSTKNN_WRITE_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	v := textual.NewVocabulary()
	for _, doc := range [][]string{
		{"fresh", "sushi", "seafood"},
		{"hand", "pulled", "noodles"},
		{"sushi", "bar", "with, commas", `and "quotes"`},
	} {
		v.AddDocument(doc)
	}
	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatal(err)
	}
	seeds := [][]byte{
		[]byte("docs,0\n"),
		buf.Bytes(),
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzTextualPersist")
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
