package rstknn

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestSaveOpenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	objects := genRestaurants(rng, 300)
	for _, opt := range []Options{
		{},
		{Index: CIUR, Clusters: 5, OutlierThreshold: 0.1},
		{Weighting: "binary", Measure: "cosine", Alpha: 0.3},
	} {
		eng, err := Build(objects, opt)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "idx")
		if err := eng.Save(dir); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Identical answers for a spread of queries.
		for trial := 0; trial < 5; trial++ {
			x, y := rng.Float64()*100, rng.Float64()*100
			text := menuTerms[rng.Intn(len(menuTerms))] + " " + menuTerms[rng.Intn(len(menuTerms))]
			k := 1 + rng.Intn(6)
			a, err := eng.Query(x, y, text, k)
			if err != nil {
				t.Fatal(err)
			}
			b, err := re.Query(x, y, text, k)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(a.IDs) != fmt.Sprint(b.IDs) {
				t.Fatalf("reopened engine disagrees: %v vs %v", a.IDs, b.IDs)
			}
		}
		// Index statistics survive.
		sa, sb := eng.Stats(), re.Stats()
		if sa.Objects != sb.Objects || sa.Height != sb.Height ||
			sa.Clusters != sb.Clusters || sa.MaxDistance != sb.MaxDistance ||
			sa.VocabSize != sb.VocabSize {
			t.Errorf("stats differ: %+v vs %+v", sa, sb)
		}
		if err := re.Close(); err != nil {
			t.Error(err)
		}
		if err := eng.Close(); err != nil { // no-op for in-memory engines
			t.Error(err)
		}
	}
}

func TestSaveOpenEmptyEngine(t *testing.T) {
	eng, err := Build(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "empty")
	if err := eng.Save(dir); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res, err := re.Query(0, 0, "anything", 3)
	if err != nil || len(res.IDs) != 0 {
		t.Errorf("empty reopened engine: %v, %v", res, err)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing dir should fail")
	}
	// Corrupt meta.json.
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "meta.json"), []byte("{nope"), 0o644)
	if _, err := Open(dir); err == nil {
		t.Error("corrupt meta should fail")
	}
	// Wrong version.
	os.WriteFile(filepath.Join(dir, "meta.json"), []byte(`{"version": 99}`), 0o644)
	if _, err := Open(dir); err == nil {
		t.Error("future version should fail")
	}
}

func TestOpenDetectsObjectCountMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	eng, err := Build(genRestaurants(rng, 20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := eng.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Truncate objects.csv to a single line.
	path := filepath.Join(dir, "objects.csv")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range data {
		if b == '\n' {
			os.WriteFile(path, data[:i+1], 0o644)
			break
		}
	}
	if _, err := Open(dir); err == nil {
		t.Error("object count mismatch should fail")
	}
}

func TestReopenedEngineChargesIO(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	eng, err := Build(genRestaurants(rng, 200), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := eng.Save(dir); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res, err := re.Query(50, 50, "sushi", 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PageAccesses == 0 {
		t.Error("reopened engine should charge simulated I/O")
	}
}

func TestSaveTwiceIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	eng, err := Build(genRestaurants(rng, 50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d1 := filepath.Join(t.TempDir(), "a")
	d2 := filepath.Join(t.TempDir(), "b")
	if err := eng.Save(d1); err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(d2); err != nil {
		t.Fatal(err)
	}
	r1, err := Open(d1)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	r2, err := Open(d2)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	a, _ := r1.Query(10, 10, "sushi", 3)
	b, _ := r2.Query(10, 10, "sushi", 3)
	if fmt.Sprint(a.IDs) != fmt.Sprint(b.IDs) {
		t.Error("two saves of the same engine disagree")
	}
}

// TestOpenIgnoresRemovedOptions opens an index whose meta.json still
// carries options older versions wrote ("NodeCache", "SharedBatch",
// "BoundCache"): it must open and answer exactly like the engine that
// saved it, down to every QueryStats counter. "BoundCache": -1 used to
// disable the bound cache, so the reopened engine must still fill it.
func TestOpenIgnoresRemovedOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	eng, err := Build(genRestaurants(rng, 300), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := saveWithPatchedMeta(t, eng, map[string]any{"NodeCache": 64, "SharedBatch": -1, "BoundCache": -1})
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for trial := 0; trial < 6; trial++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		text := menuTerms[rng.Intn(len(menuTerms))]
		k := 1 + rng.Intn(6)
		a, err := eng.Query(x, y, text, k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := re.Query(x, y, text, k)
		if err != nil {
			t.Fatal(err)
		}
		a.Stats.Duration, b.Stats.Duration = 0, 0
		if fmt.Sprint(a.IDs) != fmt.Sprint(b.IDs) || a.Stats != b.Stats {
			t.Fatalf("trial %d: reopened engine answered %v %+v, saver %v %+v",
				trial, b.IDs, b.Stats, a.IDs, a.Stats)
		}
	}
	if st := re.Stats(); st.BoundCacheEntries == 0 || st.BoundCacheMisses == 0 {
		t.Errorf("reopened engine's bound cache is off: %d entries, %d misses", st.BoundCacheEntries, st.BoundCacheMisses)
	}
}
