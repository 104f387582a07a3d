package textual

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestVocabularySaveLoadRoundTrip(t *testing.T) {
	v := NewVocabulary()
	v.AddDocument([]string{"sushi", "seafood"})
	v.AddDocument([]string{"sushi", "noodles", "noodles"})
	v.AddDocument([]string{"ramen"})

	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadVocabulary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Docs() != v.Docs() || got.Size() != v.Size() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", got.Docs(), got.Size(), v.Docs(), v.Size())
	}
	for _, term := range []string{"sushi", "seafood", "noodles", "ramen"} {
		wantID, _ := v.Lookup(term)
		gotID, ok := got.Lookup(term)
		if !ok || gotID != wantID {
			t.Errorf("term %q: id %d vs %d (ok=%v)", term, gotID, wantID, ok)
		}
		if got.DF(gotID) != v.DF(wantID) {
			t.Errorf("term %q: df %d vs %d", term, got.DF(gotID), v.DF(wantID))
		}
		if got.IDF(gotID) != v.IDF(wantID) {
			t.Errorf("term %q: idf differs", term)
		}
	}
}

func TestVocabularySaveLoadEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewVocabulary().Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadVocabulary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 0 || got.Docs() != 0 {
		t.Errorf("empty vocab round trip: %d terms, %d docs", got.Size(), got.Docs())
	}
}

func TestLoadVocabularyErrors(t *testing.T) {
	cases := []string{
		"",                     // no header
		"nope,3\n",             // wrong header tag
		"docs,abc\n",           // bad count
		"docs,1\nterm,xyz\n",   // bad df
		"docs,1\na,1\na,2\n",   // duplicate term
		"docs,0\n\"\r\r\n\",0", // reads as "\r\n", which would save back as "\n"
	}
	for _, in := range cases {
		if _, err := LoadVocabulary(strings.NewReader(in)); err == nil {
			t.Errorf("LoadVocabulary(%q) should fail", in)
		}
	}
}

// TestSaveRejectsCarriageReturn: CSV does not preserve a carriage return
// inside a quoted field, so Save must fail rather than write a term that
// loads back as a different string.
func TestSaveRejectsCarriageReturn(t *testing.T) {
	v := NewVocabulary()
	v.AddDocument([]string{"a\r\nb"})
	if err := v.Save(io.Discard); err == nil {
		t.Error("Save accepted a term with a carriage return")
	}
}

func TestVocabularyTermsWithCommasSurviveCSV(t *testing.T) {
	v := NewVocabulary()
	// Tokenize never produces commas, but the vocabulary API does not
	// forbid them; CSV quoting must keep the file parseable.
	v.AddDocument([]string{`a,b`, `say "hi"`})
	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadVocabulary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Lookup(`a,b`); !ok {
		t.Error("comma term lost")
	}
	if _, ok := got.Lookup(`say "hi"`); !ok {
		t.Error("quoted term lost")
	}
}
