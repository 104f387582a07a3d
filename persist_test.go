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

// persistQueries is a fixed query list for comparing engines.
var persistQueries = []struct {
	x, y float64
	text string
	k    int
}{
	{50, 50, "sushi seafood", 3},
	{10, 90, "pizza", 5},
	{70, 20, "ramen noodles curry", 2},
	{33, 66, "vegan salad", 4},
	{90, 5, "bbq steak burger", 6},
}

// answers runs persistQueries on e and returns each result's IDs and
// QueryStats, without the wall time.
func answers(t *testing.T, e *Engine) []string {
	t.Helper()
	var out []string
	for _, q := range persistQueries {
		res, err := e.Query(q.x, q.y, q.text, q.k)
		if err != nil {
			t.Fatal(err)
		}
		res.Stats.Duration = 0
		out = append(out, fmt.Sprintf("%v %+v", res.IDs, res.Stats))
	}
	return out
}

// answersOf opens dir, runs answers on it and closes it.
func answersOf(t *testing.T, dir string) []string {
	t.Helper()
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	return answers(t, e)
}

func checkSameAnswers(t *testing.T, what string, got, want []string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s, query %d: %s, want %s", what, i, got[i], want[i])
		}
	}
}

// mutateOpened runs every kind of write on an opened engine: Insert,
// Delete, Apply and Compact.
func mutateOpened(t *testing.T, e *Engine) {
	t.Helper()
	if _, err := e.Insert(Object{ID: 1000, X: 50, Y: 51, Text: "sushi seafood ramen"}); err != nil {
		t.Fatal(err)
	}
	if found, _, err := e.Delete(3); err != nil || !found {
		t.Fatalf("Delete(3) = %v, %v", found, err)
	}
	if _, err := e.Apply(Batch{
		Insert: []Object{{ID: 1001, X: 11, Y: 89, Text: "pizza pasta"}, {ID: 1002, X: 69, Y: 21, Text: "curry"}},
		Delete: []int32{7, 1000},
	}); err != nil {
		t.Fatal(err)
	}
	e.Compact()
}

// TestOpenedIndexUnchangedUntilSave: writes to an opened engine live in
// memory, so closing it without Save leaves a directory that reopens
// and answers exactly as before.
func TestOpenedIndexUnchangedUntilSave(t *testing.T) {
	eng, err := Build(genRestaurants(rand.New(rand.NewSource(26)), 300), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := eng.Save(dir); err != nil {
		t.Fatal(err)
	}
	want := answersOf(t, dir)
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mutateOpened(t, e)
	if e.Len() != 300 {
		t.Fatalf("mutated engine holds %d objects, want 300", e.Len())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	checkSameAnswers(t, "reopened after unsaved writes", answersOf(t, dir), want)
}

// TestSaveIntoOpenedDirectory: Save into the directory an engine was
// opened from replaces the index, and the saving engine keeps answering
// from the log it opened until it closes.
func TestSaveIntoOpenedDirectory(t *testing.T) {
	eng, err := Build(genRestaurants(rand.New(rand.NewSource(27)), 300), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := eng.Save(dir); err != nil {
		t.Fatal(err)
	}
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mutateOpened(t, e)
	want := answers(t, e)
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	checkSameAnswers(t, "saver after its Save", answers(t, e), want)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	checkSameAnswers(t, "reopened after Save", answersOf(t, dir), want)
}

// TestSaveLeavesIOStateAlone: Save charges no I/O and leaves the buffer
// pool as it was, so an engine that saved reports the same index
// statistics, and answers its next query at the same cost, as a twin
// that did not.
func TestSaveLeavesIOStateAlone(t *testing.T) {
	objs := genRestaurants(rand.New(rand.NewSource(28)), 300)
	opt := Options{BufferPoolPages: 8, Workers: 1}
	saver, err := Build(objs, opt)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := Build(objs, opt)
	if err != nil {
		t.Fatal(err)
	}
	answers(t, saver)
	answers(t, twin)
	if err := saver.Save(filepath.Join(t.TempDir(), "idx")); err != nil {
		t.Fatal(err)
	}
	a, b := saver.Stats(), twin.Stats()
	a.BuildTime, b.BuildTime = 0, 0
	if a != b {
		t.Errorf("index stats after Save: %+v, twin %+v", a, b)
	}
	if a.BufferPoolHits == 0 || a.BufferPoolMisses == 0 {
		t.Errorf("queries left no pool history to compare: %+v", a)
	}
	checkSameAnswers(t, "query after Save", answers(t, saver), answers(t, twin))
}

// TestSaveOpenCyclesKeepSlotCounts: Insert, Delete, Save and Open,
// repeated, reopen each time with the slot and page counts the engine
// had before its Save. The slots the updates freed reopen as freed and
// the next cycle's updates recycle them, so the counts do not grow from
// one cycle to the next.
func TestSaveOpenCyclesKeepSlotCounts(t *testing.T) {
	eng, err := Build(genRestaurants(rand.New(rand.NewSource(29)), 60), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := eng.Save(dir); err != nil {
		t.Fatal(err)
	}
	type counts struct{ nodes, pages, bytes, livePages, liveBytes int64 }
	countsOf := func(s IndexStats) counts {
		return counts{s.Nodes, s.Pages, s.Bytes, s.LivePages, s.LiveBytes}
	}
	var first counts
	for cycle := 0; cycle < 3; cycle++ {
		e, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Insert(Object{ID: 100, X: 35, Y: 27, Text: "midtown sushi"}); err != nil {
			t.Fatal(err)
		}
		if found, _, err := e.Delete(100); err != nil || !found {
			t.Fatalf("Delete(100) = %v, %v", found, err)
		}
		before := e.Stats()
		if before.PendingReclaim != 0 {
			t.Fatalf("cycle %d: %d retired nodes still pending with no reader", cycle, before.PendingReclaim)
		}
		if err := e.Save(dir); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		after := re.Stats()
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := countsOf(after), countsOf(before); got != want {
			t.Errorf("cycle %d: reopened with %+v, saved with %+v", cycle, got, want)
		}
		if cycle == 0 {
			first = countsOf(before)
		} else if got := countsOf(before); got != first {
			t.Errorf("cycle %d: counts %+v before Save, %+v in the first cycle", cycle, got, first)
		}
	}
}

// TestSaveWithPinnedReaderReopensRetiredSlotsFreed: a Save while a
// reader pins the previous snapshot sees that snapshot's retired nodes
// still in the store. No version of the reopened engine can reach
// them, so they must reopen as freed slots, and the reopened footprint
// must equal the saver's once the reader has finished.
func TestSaveWithPinnedReaderReopensRetiredSlotsFreed(t *testing.T) {
	eng, err := Build(genRestaurants(rand.New(rand.NewSource(29)), 60), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, release := holdRead(t, eng)
	if _, err := eng.Insert(Object{ID: 100, X: 35, Y: 27, Text: "midtown sushi"}); err != nil {
		t.Fatal(err)
	}
	if p := eng.Stats().PendingReclaim; p == 0 {
		t.Fatal("setup: the Insert retired nothing behind the pin")
	}
	dir := filepath.Join(t.TempDir(), "idx")
	if err := eng.Save(dir); err != nil {
		t.Fatal(err)
	}
	release()
	saved := eng.Stats()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Stats()
	if got.LivePages != saved.LivePages || got.LiveBytes != saved.LiveBytes ||
		got.Pages != saved.Pages || got.Bytes != saved.Bytes {
		t.Errorf("reopened with %d live pages (%d B), %d pages (%d B); saved with %d (%d B), %d (%d B)",
			got.LivePages, got.LiveBytes, got.Pages, got.Bytes,
			saved.LivePages, saved.LiveBytes, saved.Pages, saved.Bytes)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
