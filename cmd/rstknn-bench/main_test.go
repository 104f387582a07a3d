package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"T1", "T2", "F1", "F9", "F10", "F11", "F12", "F13"} {
		if !strings.Contains(out, id) {
			t.Errorf("-list output missing %s:\n%s", id, out)
		}
	}
}

func TestRunSelectedExperiments(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-exp", "T1,t2", "-scale", "0.01", "-queries", "2"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== T1") || !strings.Contains(out, "== T2") {
		t.Errorf("selected experiments missing:\n%s", out)
	}
	if !strings.Contains(out, "total:") {
		t.Error("missing total runtime line")
	}
}

func TestRunProfileFlag(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-exp", "T1", "-scale", "0.01", "-queries", "2", "-profile", "topical"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "profile=topical") {
		t.Errorf("profile flag not reflected:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "F99"}, &buf); err == nil {
		t.Error("unknown experiment should fail")
	}
	if err := run([]string{"-profile", "flickr"}, &buf); err == nil {
		t.Error("unknown profile should fail")
	}
	if err := run([]string{"-badflag"}, &buf); err == nil {
		t.Error("bad flag should fail")
	}
}
