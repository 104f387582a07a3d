package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleStore() *FactStore {
	s := NewFactStore()
	s.add("rstknn/internal/vector.Dot", &FuncSummary{Func: "rstknn/internal/vector.Dot"})
	s.add("pkg/a.Helper", &FuncSummary{
		Func:      "pkg/a.Helper",
		Allocates: true,
		AllocWhy:  "make([]int) allocates at a.go:10",
	})
	s.add("pkg/a.(Snapshot).ReadAll", &FuncSummary{
		Func:       "Snapshot.ReadAll",
		PerformsIO: true,
		IOWhy:      "calls Blobs.GetTracked",
	})
	s.add("pkg/b.carve", &FuncSummary{Func: "carve", CapBacked: true})
	s.add("pkg/c.(Engine).publish", &FuncSummary{Func: "Engine.publish", Publishes: true})
	s.add("pkg/c.(Reclaimer).Retire", &FuncSummary{Func: "Reclaimer.Retire", Retires: true})
	s.add("pkg/c.(Store).grow", &FuncSummary{
		Func:        "Store.grow",
		LockClasses: []string{"pkg/c.Store.mu", "pkg/c.poolShard.mu"},
		LockPairs:   []string{"pkg/c.Store.mu=>pkg/c.poolShard.mu"},
	})
	s.add("pkg/d.DecodeCount", &FuncSummary{
		Func: "DecodeCount",
		TaintResults: []TaintSpec{
			{Result: 0, Level: "wild", Hi: 1<<32 - 1, Why: "a 32-bit value decoded from untrusted bytes at d.go:7"},
			{Result: 1, Level: "bounded", Hi: 10, Neg: true, Why: "the byte count of a varint at d.go:8"},
		},
	})
	s.add("pkg/d.Fill", &FuncSummary{
		Func: "Fill",
		SinkParams: []SinkSpec{
			{Param: 1, Kind: "index", Why: "index at d.go:12"},
			{Param: 2, Kind: "narrow", Hi: 1<<16 - 1, Why: "narrow at d.go:13"},
		},
	})
	return s
}

// TestFactsRoundTripFile drives the exact path the vet driver uses:
// summaries encoded to a facts (.vetx) file and read back by the next
// unit must survive unchanged.
func TestFactsRoundTripFile(t *testing.T) {
	s := sampleStore()
	path := filepath.Join(t.TempDir(), "unit.vetx")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFactsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("round-trip lost entries: got %d, want %d", got.Len(), s.Len())
	}
	for key, want := range s.funcs {
		have := got.Lookup(key)
		if have == nil {
			t.Fatalf("round-trip dropped %q", key)
		}
		if !reflect.DeepEqual(have, want) {
			t.Errorf("round-trip changed %q: got %+v, want %+v", key, have, want)
		}
	}
}

// TestFactsDeterministicEncoding: the go command caches vet results on
// file content, so two encodes of the same store must be byte-identical.
func TestFactsDeterministicEncoding(t *testing.T) {
	a, err := sampleStore().Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampleStore().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("encoding is not deterministic:\n%s\n%s", a, b)
	}
}

func TestFactsEmptyAndMissing(t *testing.T) {
	got, err := DecodeFacts(nil)
	if err != nil || got.Len() != 0 {
		t.Fatalf("DecodeFacts(nil) = %d entries, %v; want empty, nil", got.Len(), err)
	}
	got, err = ReadFactsFile(filepath.Join(t.TempDir(), "nope.vetx"))
	if err != nil || got.Len() != 0 {
		t.Fatalf("missing facts file: %d entries, %v; want empty, nil", got.Len(), err)
	}
}

// TestFactsVersionMismatch: a stale facts file from a different tool
// version is discarded, not an error.
func TestFactsVersionMismatch(t *testing.T) {
	data, err := json.Marshal(factsFile{
		Version: factsVersion + 1,
		Funcs:   map[string]*FuncSummary{"p.F": {Func: "F", Allocates: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stale.vetx")
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFactsFile(path)
	if err != nil || got.Len() != 0 {
		t.Fatalf("stale facts file: %d entries, %v; want empty store, nil", got.Len(), err)
	}
}

// TestFactsTaintSpecsInteresting: the v3 taint fields alone make a
// summary worth exporting — a pure decode helper with no behavioral
// flags must still cross package boundaries.
func TestFactsTaintSpecsInteresting(t *testing.T) {
	taintOnly := &FuncSummary{
		Func:         "Decode",
		TaintResults: []TaintSpec{{Result: 0, Level: "wild", Hi: 42, Why: "w"}},
	}
	if !taintOnly.interesting() {
		t.Error("TaintResults-only summary not interesting; it would never be exported")
	}
	sinkOnly := &FuncSummary{
		Func:       "Fill",
		SinkParams: []SinkSpec{{Param: 0, Kind: "alloc", Why: "w"}},
	}
	if !sinkOnly.interesting() {
		t.Error("SinkParams-only summary not interesting; it would never be exported")
	}
	if (&FuncSummary{Func: "Nop"}).interesting() {
		t.Error("empty summary claims to be interesting")
	}
}

func TestFactsMerge(t *testing.T) {
	a := NewFactStore()
	a.add("p.F", &FuncSummary{Func: "F", Allocates: true})
	b := NewFactStore()
	b.add("p.G", &FuncSummary{Func: "G", PerformsIO: true})
	a.Merge(b)
	if a.Len() != 2 || a.Lookup("p.G") == nil {
		t.Fatalf("merge failed: %d entries", a.Len())
	}
}
