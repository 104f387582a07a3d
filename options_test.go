package rstknn

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// saveWithPatchedMeta saves eng into a fresh directory and overwrites
// the given keys of meta.json's options object, returning the directory.
func saveWithPatchedMeta(t *testing.T, eng *Engine, patch map[string]any) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "idx")
	if err := eng.Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "meta.json")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(buf, &meta); err != nil {
		t.Fatal(err)
	}
	opts := meta["options"].(map[string]any)
	for k, v := range patch {
		opts[k] = v
	}
	if buf, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// noPanic runs f and turns a panic into a test failure, so one bad case
// does not abort the table.
func noPanic(t *testing.T, f func() error) error {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panicked instead of returning an error: %v", r)
		}
	}()
	return f()
}

// TestInvalidOptionsReturnErrors checks that Build and Open reject
// options the storage layer cannot serve with an error, not a panic: a
// non-positive page size, an out-of-range alpha, and an unknown
// weighting or measure.
func TestInvalidOptionsReturnErrors(t *testing.T) {
	objs := genRestaurants(rand.New(rand.NewSource(3)), 60)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"negative page size", Options{PageSize: -1}},
		{"alpha above 1", Options{Alpha: 1.5}},
		{"unknown weighting", Options{Weighting: "bm25"}},
		{"unknown measure", Options{Measure: "dice"}},
	} {
		t.Run("Build/"+tc.name, func(t *testing.T) {
			err := noPanic(t, func() error {
				_, err := Build(objs, tc.opt)
				return err
			})
			if err == nil {
				t.Fatalf("Build(%+v) succeeded", tc.opt)
			}
		})
	}

	eng, err := Build(objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		patch map[string]any
	}{
		{"zero page size", map[string]any{"PageSize": 0}},
		{"negative page size", map[string]any{"PageSize": -1}},
		{"alpha above 1", map[string]any{"Alpha": 2}},
		{"unknown weighting", map[string]any{"Weighting": "bm25"}},
		{"unknown measure", map[string]any{"Measure": "dice"}},
	} {
		t.Run("Open/"+tc.name, func(t *testing.T) {
			dir := saveWithPatchedMeta(t, eng, tc.patch)
			err := noPanic(t, func() error {
				re, err := Open(dir)
				if err == nil {
					re.Close()
				}
				return err
			})
			if err == nil {
				t.Fatalf("Open with meta options %v succeeded", tc.patch)
			}
		})
	}
}

// TestOpenIgnoresRemovedFanoutFields: indexes saved while the fan-out
// was an option carry FanoutMin/FanoutMax in meta.json. The fan-out is
// now fixed, so Open ignores those fields, whatever their values.
func TestOpenIgnoresRemovedFanoutFields(t *testing.T) {
	objs := genRestaurants(rand.New(rand.NewSource(3)), 60)
	eng, err := Build(objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := saveWithPatchedMeta(t, eng, map[string]any{"FanoutMin": 1, "FanoutMax": 3})
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with old fan-out fields: %v", err)
	}
	defer re.Close()
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
