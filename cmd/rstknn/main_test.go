package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rstknn/internal/textual"
)

func TestRunGenerateAndQuery(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-gen", "gn", "-n", "500", "-stats",
		"-query", "500,500,t1 t2 t7", "-k", "5", "-check",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"generated 500 objects",
		"collection: 500 objects",
		"RSTkNN(k=5, alpha=0.5)",
		"matches naive oracle",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCIURWithAllFlags(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-gen", "topical", "-n", "400", "-index", "ciur", "-clusters", "8",
		"-outlier", "0.1", "-entropy", "-alpha", "0.3", "-measure", "cosine",
		"-query", "500,500,t5 t6", "-k", "3", "-check",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "matches naive oracle") {
		t.Errorf("CIUR query did not verify:\n%s", buf.String())
	}
}

func TestRunCheckIndex(t *testing.T) {
	for _, index := range []string{"iur", "ciur"} {
		var buf bytes.Buffer
		err := run([]string{
			"-gen", "gn", "-n", "400", "-index", index, "-checkindex",
		}, &buf)
		if err != nil {
			t.Fatalf("index %s: %v", index, err)
		}
		if !strings.Contains(buf.String(), "checkindex: all structural invariants hold") {
			t.Errorf("index %s: missing checkindex confirmation:\n%s", index, buf.String())
		}
	}
}

func TestRunTopK(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-gen", "uniform", "-n", "300",
		"-topk", "500,500,t1 t2", "-k", "4",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "top-4 most similar objects") {
		t.Errorf("missing top-k header:\n%s", out)
	}
	if got := strings.Count(out, ". object "); got != 4 {
		t.Errorf("expected 4 top-k lines, got %d:\n%s", got, out)
	}
}

func TestRunLoadCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "objs.csv")
	csv := "1,10,10,sushi:1 seafood:2\n2,20,20,noodles:1\n3,12,9,sushi:2\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-data", path, "-query", "11,11,sushi", "-k", "1", "-check"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "loaded 3 objects") {
		t.Errorf("load header missing:\n%s", buf.String())
	}
}

func TestRunLoadRawCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "raw.csv")
	csv := "1,10,10,fresh sushi and seafood\n2,20,20,hand pulled noodles\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-data", path, "-raw", "-stats"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "loaded 2 objects") {
		t.Errorf("raw load failed:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                 // neither -data nor -gen
		{"-gen", "flickr"}, // unknown profile
		{"-gen", "gn", "-n", "50", "-index", "btree"},   // unknown index
		{"-gen", "gn", "-n", "50", "-measure", "tfidf"}, // unknown measure
		{"-gen", "gn", "-n", "50", "-query", "oops"},    // bad query syntax
		{"-data", "/does/not/exist.csv"},                // missing file
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestParseQuery(t *testing.T) {
	vocab := textual.NewVocabulary()
	q, err := parseQuery("1.5, 2.5, sushi seafood", vocab)
	if err != nil {
		t.Fatal(err)
	}
	if q.Loc.X != 1.5 || q.Loc.Y != 2.5 || q.Doc.Len() != 2 {
		t.Errorf("parsed query: %+v doc=%v", q.Loc, q.Doc)
	}
	// Location-only queries are allowed.
	q, err = parseQuery("3,4", vocab)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Doc.IsEmpty() {
		t.Error("two-field query should have empty doc")
	}
	for _, bad := range []string{"", "5", "x,2,t", "2,y,t"} {
		if _, err := parseQuery(bad, vocab); err == nil {
			t.Errorf("parseQuery(%q) should fail", bad)
		}
	}
}

func TestSubcommandLifecycle(t *testing.T) {
	dir := t.TempDir()
	idx := filepath.Join(dir, "idx")
	csvPath := filepath.Join(dir, "raw.csv")
	var lines []string
	for i := 0; i < 60; i++ {
		lines = append(lines, fmt.Sprintf("%d,%d,%d,dish number %d with sushi", i, i%10*7, i/10*9, i))
	}
	if err := os.WriteFile(csvPath, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := run([]string{"build", "-dir", idx, "-data", csvPath, "-stats"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"built iur index over 60 objects", "write i/o:", "live"} {
		if !strings.Contains(out, want) {
			t.Errorf("build output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := run([]string{"insert", "-dir", idx, "-id", "100", "-x", "35", "-y", "27", "-text", "midtown sushi"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "inserted object 100 (61 objects total)") ||
		!strings.Contains(buf.String(), "update:") {
		t.Errorf("insert output:\n%s", buf.String())
	}

	buf.Reset()
	if err := run([]string{"query", "-dir", idx, "-query", "35,27,midtown sushi", "-k", "3", "-check"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "object 100") ||
		!strings.Contains(buf.String(), "matches naive oracle") {
		t.Errorf("query after insert:\n%s", buf.String())
	}

	buf.Reset()
	if err := run([]string{"delete", "-dir", idx, "-id", "100"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "deleted object 100 (60 objects remain)") {
		t.Errorf("delete output:\n%s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"delete", "-dir", idx, "-id", "100"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "not in the index") {
		t.Errorf("double delete output:\n%s", buf.String())
	}

	buf.Reset()
	if err := run([]string{"stats", "-dir", idx}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "60 objects") {
		t.Errorf("stats output:\n%s", buf.String())
	}

	buf.Reset()
	if err := run([]string{"query", "-dir", idx, "-query", "35,27,midtown sushi", "-k", "3", "-check"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "object 100") {
		t.Errorf("deleted object still reported:\n%s", buf.String())
	}

	if err := run([]string{"frobnicate"}, &buf); err == nil {
		t.Error("unknown subcommand should fail")
	}
	if err := run([]string{"insert", "-dir", idx}, &buf); err == nil {
		t.Error("insert without -id should fail")
	}
}
