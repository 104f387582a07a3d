package analysis

// Serializable function facts. The dataflow engine (summary.go) computes
// one FuncSummary per function declaration; the vet driver (vet.go)
// writes every interesting summary of a package — merged with the
// summaries of its dependencies — to the unit's facts file (VetxOutput),
// and reads the facts of imports back from the files the go command
// lists in PackageVetx. That is how a property like "this helper
// allocates" crosses package boundaries: hotalloc flags a call in
// package b to an allocating helper of package a without ever seeing
// a's source, exactly like go/analysis facts ride the .vetx files of
// the unitchecker protocol.

import (
	"encoding/json"
	"fmt"
	"go/types"
	"os"
)

// factsVersion guards the on-disk encoding; bump on incompatible change.
// A version mismatch discards the file (vet re-runs the tool whenever
// the binary changes, so stale files only appear across tool versions).
// Version 2 added the lifecycle facts (Publishes/Retires) and the
// lock-order facts (LockClasses/LockPairs). Version 3 added the taint
// facts (TaintResults/SinkParams) for untrustedlen. Version 4 dropped
// the never-read lock-acquisition bit and the shared-write facts of the
// retired goroutine-closure analyzer.
const factsVersion = 4

// FuncSummary is the behavioral summary of one function: everything a
// caller-side analyzer needs to know without the function's source.
// Every property is transitive — it holds if the function's own body
// exhibits it or any statically resolvable callee's summary does.
type FuncSummary struct {
	// Func is the display name used in diagnostics (pkg.(Recv).Name).
	Func string `json:"func"`

	// Allocates reports that the function may heap-allocate. Sites
	// suppressed with //rstknn:allow hotalloc do not count: the
	// directive blesses the function as effectively allocation-free
	// (amortized warm-up growth, cold fallbacks), so callers on a hot
	// path are not tainted. AllocWhy names the first piece of evidence.
	Allocates bool   `json:"allocates,omitempty"`
	AllocWhy  string `json:"alloc_why,omitempty"`

	// PerformsIO reports that the function may perform simulated
	// node/blob I/O (a store GetTracked, itself or through a callee).
	// IOWhy names the evidence. locksafe uses it to see through helpers.
	PerformsIO bool   `json:"performs_io,omitempty"`
	IOWhy      string `json:"io_why,omitempty"`

	// CapBacked reports that the function returns a zero-length slice
	// backed by explicitly reserved capacity (an arena carve or
	// make([]T, 0, n)): appending up to that capacity cannot allocate,
	// which is hotalloc's "capacity proof" for append.
	CapBacked bool `json:"cap_backed,omitempty"`

	// Publishes reports that the function atomically publishes shared
	// state (Store/Swap/CompareAndSwap on a sync/atomic pointer) on
	// every path, itself or through a callee. retirepub treats a call
	// to such a function as a publish dominating later retires.
	Publishes bool `json:"publishes,omitempty"`

	// Retires reports that the function retires storage (Reclaimer or
	// store Retire) on some path that is NOT dominated by a publish
	// inside the function — the retire obligation leaks to the caller,
	// who must have published first. Retire sites suppressed with
	// //rstknn:allow retirepub do not count.
	Retires bool `json:"retires,omitempty"`

	// LockClasses lists the lock classes (pkgpath.Type.field) the
	// function may acquire, itself or transitively. lockorder uses it
	// to grow ordering edges at call sites made under a held lock.
	LockClasses []string `json:"lock_classes,omitempty"`

	// LockPairs lists observed acquisition orderings "A=>B" (B acquired
	// while A held), own and transitive. The union over a package's
	// import closure is the lock-order graph lockorder checks for
	// cycles.
	LockPairs []string `json:"lock_pairs,omitempty"`

	// TaintResults lists the function's integer results that derive
	// from untrusted page bytes, with the taint level and magnitude
	// bound untrustedlen computed. Callers treat such a result exactly
	// like a local binary.* decode.
	TaintResults []TaintSpec `json:"taint_results,omitempty"`

	// SinkParams lists the parameters the function feeds into a taint
	// sink (allocation size, slice index, narrowing conversion) without
	// validating them first: the caller must pass bounded values.
	SinkParams []SinkSpec `json:"sink_params,omitempty"`
}

// TaintSpec describes the taint of one function result.
type TaintSpec struct {
	// Result is the result index.
	Result int `json:"result"`
	// Level is "bounded" (proportional to validated input) or "wild"
	// (attacker-chosen with no dominating check).
	Level string `json:"level"`
	// Hi is the saturating upper bound on the result's magnitude.
	Hi uint64 `json:"hi,omitempty"`
	// Neg reports that the result may be negative.
	Neg bool `json:"neg,omitempty"`
	// Why names the originating source for diagnostics.
	Why string `json:"why,omitempty"`
}

// SinkSpec describes one unvalidated parameter-to-sink flow.
type SinkSpec struct {
	// Param is the signature parameter index (receiver excluded).
	Param int `json:"param"`
	// Kind is the sink class: "alloc", "index", or "narrow".
	Kind string `json:"kind"`
	// Hi is the largest magnitude the sink tolerates (narrow sinks:
	// the conversion target's max; zero otherwise).
	Hi uint64 `json:"hi,omitempty"`
	// Why locates the sink for diagnostics.
	Why string `json:"why,omitempty"`
}

// interesting reports whether the summary carries any information worth
// serializing; all-false summaries are omitted from the facts file.
func (s *FuncSummary) interesting() bool {
	return s.Allocates || s.PerformsIO || s.CapBacked ||
		s.Publishes || s.Retires || len(s.LockClasses) > 0 || len(s.LockPairs) > 0 ||
		len(s.TaintResults) > 0 || len(s.SinkParams) > 0
}

// FactStore maps function keys (see FuncKey) to summaries. One store
// accumulates the facts of a package's entire import closure.
type FactStore struct {
	funcs map[string]*FuncSummary
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{funcs: make(map[string]*FuncSummary)}
}

// Lookup returns the summary stored under key, or nil.
func (s *FactStore) Lookup(key string) *FuncSummary {
	if s == nil {
		return nil
	}
	return s.funcs[key]
}

// LookupFunc returns the summary of the given function object, or nil.
func (s *FactStore) LookupFunc(fn *types.Func) *FuncSummary {
	if s == nil || fn == nil {
		return nil
	}
	return s.funcs[FuncKey(fn)]
}

// add records a summary, overwriting any previous entry for key.
func (s *FactStore) add(key string, sum *FuncSummary) {
	s.funcs[key] = sum
}

// Merge copies every entry of other into s.
func (s *FactStore) Merge(other *FactStore) {
	if other == nil {
		return
	}
	for k, v := range other.funcs {
		s.funcs[k] = v
	}
}

// Len returns the number of stored summaries.
func (s *FactStore) Len() int {
	if s == nil {
		return 0
	}
	return len(s.funcs)
}

// factsFile is the on-disk shape of a facts (.vetx) file.
type factsFile struct {
	Version int                     `json:"version"`
	Funcs   map[string]*FuncSummary `json:"funcs"`
}

// Encode serializes the store. The JSON encoder sorts map keys, so the
// encoding is deterministic — the go command caches on file content.
func (s *FactStore) Encode() ([]byte, error) {
	return json.Marshal(factsFile{Version: factsVersion, Funcs: s.funcs})
}

// DecodeFacts parses an encoded store. Empty input (the facts file of a
// fact-free dependency, e.g. a standard-library package) decodes to an
// empty store; a version mismatch does too, rather than failing the
// whole vet run on a stale cache entry.
func DecodeFacts(data []byte) (*FactStore, error) {
	store := NewFactStore()
	if len(data) == 0 {
		return store, nil
	}
	var f factsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("decoding facts: %w", err)
	}
	if f.Version != factsVersion {
		return store, nil
	}
	for k, v := range f.Funcs {
		store.funcs[k] = v
	}
	return store, nil
}

// ReadFactsFile loads the facts file at path. A missing file is treated
// as empty: a dependency analyzed by an older tool simply contributes
// no facts.
func ReadFactsFile(path string) (*FactStore, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return NewFactStore(), nil
		}
		return nil, err
	}
	return DecodeFacts(data)
}

// WriteFile serializes the store to path.
func (s *FactStore) WriteFile(path string) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}

// FuncKey returns the stable cross-package identifier of a function or
// method: "pkgpath.Name" for functions, "pkgpath.(Recv).Name" for
// methods (pointerness stripped — a method set has unique names either
// way). Generic instantiations share their origin's key.
func FuncKey(fn *types.Func) string {
	fn = fn.Origin()
	sig, ok := fn.Type().(*types.Signature)
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if !ok || sig.Recv() == nil {
		return pkg + "." + fn.Name()
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	name := "?"
	if named, isNamed := t.(*types.Named); isNamed {
		name = named.Obj().Name()
	}
	return pkg + ".(" + name + ")." + fn.Name()
}
