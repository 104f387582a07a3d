package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tinyConfig runs every experiment at a small fraction of the paper scale
// so the full suite stays test-fast while exercising every code path.
// F13 gets a pool of 3 workers, one per query, so its sequential-vs-pool
// equality check runs concurrent queries whatever GOMAXPROCS is.
func tinyConfig(buf *bytes.Buffer) Config {
	return Config{Out: buf, Scale: 0.01, Queries: 3, Seed: 1, Parallelism: 3}
}

func TestByID(t *testing.T) {
	if ByID("F1") == nil || ByID("f1") == nil || ByID("T1") == nil {
		t.Error("known experiments should resolve case-insensitively")
	}
	if ByID("F99") != nil {
		t.Error("unknown experiment should be nil")
	}
}

func TestExperimentsProduceTables(t *testing.T) {
	for _, e := range Experiments {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(tinyConfig(&buf)); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, "== "+e.ID) {
				t.Errorf("output missing table header %q:\n%s", e.ID, out)
			}
			if len(strings.Split(strings.TrimSpace(out), "\n")) < 4 {
				t.Errorf("table looks empty:\n%s", out)
			}
		})
	}
}

func TestRunAll(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments {
		if !strings.Contains(buf.String(), "== "+e.ID) {
			t.Errorf("RunAll output missing %s", e.ID)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Out == nil || c.Scale != 1 || c.Queries != 20 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if got := (Config{Scale: 0.001}).scaled(20000); got != 50 {
		t.Errorf("scaled floor = %d, want 50", got)
	}
	if got := (Config{Scale: 0.5}).scaled(20000); got != 10000 {
		t.Errorf("scaled = %d, want 10000", got)
	}
}

func TestBuildMethodsVariants(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	col, queries := fixture(cfg.withDefaults(), 2000)
	methods, err := buildMethods(col.Objects, treeMethods, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(methods) != 4 {
		t.Fatalf("built %d methods", len(methods))
	}
	if methods[0].tree.Clustered() {
		t.Error("IUR should be unclustered")
	}
	for _, m := range methods[1:] {
		if !m.tree.Clustered() {
			t.Errorf("%s should be clustered", m.name)
		}
	}
	// All methods return identical result counts on the same query.
	var sizes []float64
	for i := range methods {
		m, err := methods[i].runQueries(queries, 5, 0.5, nil)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, m.Results)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] != sizes[0] {
			t.Errorf("method %s mean result size %g != %g", methods[i].name, sizes[i], sizes[0])
		}
	}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	tab := newTable("demo", "a", "b")
	tab.add("1", "2")
	tab.add("333", "4444")
	tab.render(&buf)
	out := buf.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "333") {
		t.Errorf("render output:\n%s", out)
	}
}
