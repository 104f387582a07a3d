package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writeUnitConfig synthesizes the JSON compilation-unit config `go vet`
// would hand the vettool for a dependency-free package.
func writeUnitConfig(t *testing.T, dir string, goFiles []string, vetxOnly bool) (cfgPath, vetxPath string) {
	t.Helper()
	vetxPath = filepath.Join(dir, "unit.vetx")
	cfg := vetConfig{
		ID:          "fixture",
		Compiler:    "gc",
		ImportPath:  "fixture",
		GoFiles:     goFiles,
		ImportMap:   map[string]string{},
		PackageFile: map[string]string{},
		VetxOnly:    vetxOnly,
		VetxOutput:  vetxPath,
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath = filepath.Join(dir, "unit.cfg")
	if err := os.WriteFile(cfgPath, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return cfgPath, vetxPath
}

func TestRunUnitReportsDiagnostics(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.go")
	code := `package fixture

func exact(a, b float64) bool { return a == b }
`
	if err := os.WriteFile(src, []byte(code), 0o666); err != nil {
		t.Fatal(err)
	}
	cfgPath, vetxPath := writeUnitConfig(t, dir, []string{src}, false)

	var stdout, stderr strings.Builder
	exit := runUnit(cfgPath, All(), false, &stdout, &stderr)
	if exit != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", exit, stderr.String())
	}
	if !strings.Contains(stderr.String(), "exact == on floats") {
		t.Fatalf("missing floatcmp diagnostic in output: %q", stderr.String())
	}
	if _, err := os.Stat(vetxPath); err != nil {
		t.Fatalf("facts file not written: %v", err)
	}
}

func TestRunUnitCleanPackage(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.go")
	code := `package fixture

func fine(a, b float64) bool { return a < b }
`
	if err := os.WriteFile(src, []byte(code), 0o666); err != nil {
		t.Fatal(err)
	}
	cfgPath, _ := writeUnitConfig(t, dir, []string{src}, false)

	var stdout, stderr strings.Builder
	if exit := runUnit(cfgPath, All(), false, &stdout, &stderr); exit != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", exit, stderr.String())
	}
}

// jsonUnitReport mirrors the per-unit JSON report shape for decoding in
// tests.
type jsonUnitReport struct {
	SchemaVersion int `json:"schema_version"`
	Diagnostics   map[string][]struct {
		Posn     string `json:"posn"`
		Message  string `json:"message"`
		Analyzer string `json:"analyzer"`
	} `json:"diagnostics"`
	Counts     map[string]int   `json:"counts"`
	ElapsedUs  map[string]int64 `json:"elapsed_us"`
	Suppressed map[string]int   `json:"suppressed"`
}

func TestRunUnitJSONOutput(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.go")
	// One reported floatcmp violation plus one suppressed by a
	// directive: the report must carry the diagnostic with its analyzer
	// name and count the suppression.
	code := `package fixture

func exact(a, b float64) bool { return a == b }

func blessed(a, b float64) bool {
	//rstknn:allow floatcmp exact tie-break is intended here
	return a == b
}
`
	if err := os.WriteFile(src, []byte(code), 0o666); err != nil {
		t.Fatal(err)
	}
	cfgPath, _ := writeUnitConfig(t, dir, []string{src}, false)

	var stdout, stderr strings.Builder
	if exit := runUnit(cfgPath, All(), true, &stdout, &stderr); exit != 0 {
		t.Fatalf("exit = %d, want 0 in JSON mode; stderr: %s", exit, stderr.String())
	}
	var tree map[string]jsonUnitReport
	if err := json.Unmarshal([]byte(stdout.String()), &tree); err != nil {
		t.Fatalf("output is not the vet JSON shape: %v\n%s", err, stdout.String())
	}
	unit := tree["fixture"]
	ds := unit.Diagnostics["floatcmp"]
	if len(ds) != 1 {
		t.Fatalf("want 1 floatcmp diagnostic in JSON tree, got %v", tree)
	}
	if ds[0].Analyzer != "floatcmp" {
		t.Fatalf("diagnostic analyzer = %q, want floatcmp", ds[0].Analyzer)
	}
	if unit.Suppressed["floatcmp"] != 1 {
		t.Fatalf("suppressed[floatcmp] = %d, want 1 (tree %v)", unit.Suppressed["floatcmp"], tree)
	}
	// Every registered analyzer reports a count, zeroes included: the
	// report proves pinsafe/retirepub/lockorder ran, not just that they
	// found nothing.
	if len(unit.Counts) != len(All()) {
		t.Fatalf("counts has %d entries, want one per analyzer (%d): %v", len(unit.Counts), len(All()), unit.Counts)
	}
	if unit.Counts["floatcmp"] != 1 {
		t.Fatalf("counts[floatcmp] = %d, want 1", unit.Counts["floatcmp"])
	}
	for _, name := range []string{"pinsafe", "retirepub", "lockorder", "untrustedlen"} {
		if n, ok := unit.Counts[name]; !ok || n != 0 {
			t.Fatalf("counts[%s] = %d, %v; want an explicit 0", name, n, ok)
		}
	}
	if unit.SchemaVersion != lintSchemaVersion {
		t.Fatalf("schema_version = %d, want %d", unit.SchemaVersion, lintSchemaVersion)
	}
	// elapsed_us mirrors counts: an explicit entry per analyzer.
	if len(unit.ElapsedUs) != len(All()) {
		t.Fatalf("elapsed_us has %d entries, want one per analyzer (%d): %v",
			len(unit.ElapsedUs), len(All()), unit.ElapsedUs)
	}
}

// TestRunUnitJSONDeterministic: the go command caches vet output, and CI
// diffs checked-in reports, so with a pinned clock two runs over the
// same unit must produce byte-identical JSON.
func TestRunUnitJSONDeterministic(t *testing.T) {
	// A fake monotonic clock: each reading advances 100µs, so analyzer
	// timings are nonzero yet reproducible.
	tick := 0
	vetNow = func() time.Time {
		tick++
		return time.Unix(0, int64(tick)*100_000)
	}
	defer func() { vetNow = time.Now }()

	dir := t.TempDir()
	src := filepath.Join(dir, "p.go")
	code := `package fixture

func exact(a, b float64) bool { return a == b }
`
	if err := os.WriteFile(src, []byte(code), 0o666); err != nil {
		t.Fatal(err)
	}

	run := func() string {
		tick = 0
		cfgPath, _ := writeUnitConfig(t, t.TempDir(), []string{src}, false)
		var stdout, stderr strings.Builder
		if exit := runUnit(cfgPath, All(), true, &stdout, &stderr); exit != 0 {
			t.Fatalf("exit = %d; stderr: %s", exit, stderr.String())
		}
		return stdout.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two runs differ:\n--- first\n%s\n--- second\n%s", a, b)
	}
	var tree map[string]jsonUnitReport
	if err := json.Unmarshal([]byte(a), &tree); err != nil {
		t.Fatal(err)
	}
	if got := tree["fixture"].ElapsedUs["floatcmp"]; got != 100 {
		t.Fatalf("elapsed_us[floatcmp] = %d, want 100 under the pinned clock", got)
	}
}

// TestRunUnitVetxOnly checks the fact-only path: dependencies are
// analyzed for facts alone — the unit is parsed, type-checked, and
// summarized, its facts land in the .vetx file, and no diagnostics are
// emitted.
func TestRunUnitVetxOnly(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.go")
	code := `package fixture

func Alloc() []int { return make([]int, 8) }

func Carve() []int { return make([]int, 0, 8) }
`
	if err := os.WriteFile(src, []byte(code), 0o666); err != nil {
		t.Fatal(err)
	}
	cfgPath, vetxPath := writeUnitConfig(t, dir, []string{src}, true)

	var stdout, stderr strings.Builder
	if exit := runUnit(cfgPath, All(), false, &stdout, &stderr); exit != 0 {
		t.Fatalf("exit = %d, want 0 in VetxOnly mode; stderr: %s", exit, stderr.String())
	}
	store, err := ReadFactsFile(vetxPath)
	if err != nil {
		t.Fatalf("reading facts file: %v", err)
	}
	alloc := store.Lookup("fixture.Alloc")
	if alloc == nil || !alloc.Allocates {
		t.Fatalf("fixture.Alloc fact = %+v, want Allocates", alloc)
	}
	// Carve allocates (the make itself) but is capacity-backed: appends
	// to its result are proven.
	carve := store.Lookup("fixture.Carve")
	if carve == nil || !carve.CapBacked {
		t.Fatalf("fixture.Carve fact = %+v, want CapBacked", carve)
	}
	if stderr.Len() != 0 {
		t.Fatalf("VetxOnly run wrote diagnostics: %s", stderr.String())
	}
}

// TestRunUnitStandardFastPath checks that standard-library units skip
// analysis entirely and publish an empty facts file.
func TestRunUnitStandardFastPath(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.go")
	// Broken on purpose: the standard fast path must not even parse it.
	if err := os.WriteFile(src, []byte("package fixture\nfunc {"), 0o666); err != nil {
		t.Fatal(err)
	}
	vetxPath := filepath.Join(dir, "unit.vetx")
	cfg := vetConfig{
		ID:         "fixture",
		Compiler:   "gc",
		ImportPath: "fixture",
		GoFiles:    []string{src},
		Standard:   map[string]bool{"fixture": true},
		VetxOnly:   true,
		VetxOutput: vetxPath,
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "unit.cfg")
	if err := os.WriteFile(cfgPath, data, 0o666); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr strings.Builder
	if exit := runUnit(cfgPath, All(), false, &stdout, &stderr); exit != 0 {
		t.Fatalf("exit = %d, want 0 for a standard unit", exit)
	}
	store, err := ReadFactsFile(vetxPath)
	if err != nil {
		t.Fatalf("reading facts file: %v", err)
	}
	if store.Len() != 0 {
		t.Fatalf("standard unit published %d facts, want 0", store.Len())
	}
}

// TestDirectiveParsing pins the allow-directive grammar.
func TestDirectiveParsing(t *testing.T) {
	cases := []struct {
		comment string
		names   []string
	}{
		{"//rstknn:allow locksafe writer path", []string{"locksafe"}},
		{"//rstknn:allow locksafe,floatcmp reason here", []string{"locksafe", "floatcmp"}},
		{"//rstknn:allow", nil},
		{"// rstknn:allow locksafe", nil}, // directives must not have a space
		{"// regular comment", nil},
	}
	for _, c := range cases {
		names, ok := parseDirective(c.comment)
		if c.names == nil {
			if ok {
				t.Errorf("parseDirective(%q) = %v, want none", c.comment, names)
			}
			continue
		}
		if !ok || len(names) != len(c.names) {
			t.Errorf("parseDirective(%q) = %v, %v; want %v", c.comment, names, ok, c.names)
			continue
		}
		for i := range names {
			if names[i] != c.names[i] {
				t.Errorf("parseDirective(%q)[%d] = %q, want %q", c.comment, i, names[i], c.names[i])
			}
		}
	}
}
