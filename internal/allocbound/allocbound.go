// Package allocbound is a test helper: it checks that a decoder of
// untrusted bytes allocates in proportion to its input. A decoder that
// sizes an allocation from a count it has not yet checked against the
// input (an entry count, a vector length, a record ID) can be made to ask
// for megabytes from a few bytes, and still end in an error — so a test
// that only checks the input is rejected cannot see the missing guard.
// Check measures the heap bytes one decode allocates (the TotalAlloc
// delta of runtime.ReadMemStats around the call) and fails the test when
// n input bytes cost more than PerByte·n + Base.
package allocbound

import (
	"runtime"
	"testing"
)

// Bound is an allocation budget: PerByte·n + Base bytes for n input bytes.
type Bound struct {
	PerByte, Base uint64
}

// Budgets per decoder. Each was chosen from pristine inputs (encodings
// the package itself writes, in the shapes listed) and leaves about a 2×
// margin over the largest ratio seen there. A guard that allocates for an
// unchecked count overshoots by orders of magnitude: a 194-byte node
// blob whose entry count reads 0xFFFF asks for 12 MB.
var (
	// Node covers iurtree's decodeNode, through the node read. Real
	// IUR and clustered tree nodes read up to 8.4 B per blob byte; the
	// densest valid shape, a derived entry over summaries with empty
	// vectors (13 bytes each, 120 B decoded plus the merge), reads 18.2.
	// The smallest blob costs 32 B, a rejection's error a few hundred.
	Node = Bound{PerByte: 32, Base: 2048}
	// Vector covers vector.DecodeVector and DecodeEnvelope: a 4 B term
	// and an 8 B weight per 12-byte pair read 1.0 to 1.1 B per byte
	// (allocation size classes); a rejection's error about 200 B.
	Vector = Bound{PerByte: 4, Base: 1024}
	// FileStore covers storage.OpenFileStore. The slot table holds
	// 40 B per record, allocated once at its final size, and a log of
	// empty records is 8 B per record: 5.0 B per log byte (100,000
	// empty records); opening the file costs about 600 B.
	FileStore = Bound{PerByte: 10, Base: 4096}
	// Vocabulary covers textual.LoadVocabulary. Terms of one or two
	// characters ("ab,1\n") cost 45 B of map and slices per input byte,
	// a line of bare commas 107 B of CSV fields per byte before the
	// reader rejects it, and the CSV reader's buffers about 4.5 KiB.
	Vocabulary = Bound{PerByte: 256, Base: 8192}
)

// Check runs decode and fails t if it allocated more than b allows for n
// input bytes. A run over budget is repeated once, and only a second run
// over budget fails: the counter is process-wide, and the runtime
// sometimes allocates for itself while a small decode runs (about 5 KiB,
// seen in fuzz workers), where a decoder that sizes an allocation from
// an unchecked count overshoots on every run. So decode must be safe to
// call twice. Run Check outside t.Parallel.
func Check(t testing.TB, b Bound, n int, decode func()) {
	t.Helper()
	limit := b.PerByte*uint64(n) + b.Base
	got := allocated(decode)
	if got > limit {
		got = allocated(decode)
	}
	if got > limit {
		t.Errorf("decoding %d bytes allocated %d B, over the budget of %d·%d + %d = %d B",
			n, got, b.PerByte, n, b.Base, limit)
	}
}

// allocated returns the heap bytes allocated while f runs.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
