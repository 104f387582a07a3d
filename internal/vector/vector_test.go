package vector

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rstknn/internal/allocbound"
)

func vec(pairs ...float64) Vector {
	// pairs is term, weight, term, weight, ...
	m := make(map[TermID]float64, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		m[TermID(pairs[i])] = pairs[i+1]
	}
	return New(m)
}

func TestNewSortsAndDropsNonPositive(t *testing.T) {
	v := New(map[TermID]float64{5: 2, 1: 3, 9: 0, 7: -1})
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	if v.Term(0) != 1 || v.Term(1) != 5 {
		t.Errorf("terms not sorted: %v", v.Terms())
	}
	if v.WeightOf(1) != 3 || v.WeightOf(5) != 2 {
		t.Errorf("wrong weights: %v", v)
	}
	if v.WeightOf(9) != 0 || v.Has(9) {
		t.Error("zero-weight term should be dropped")
	}

	// More than 24 terms, past the run length at which a hand-rolled
	// insertion sort would hand over to a second algorithm. The encoding
	// must equal that of the same pairs sorted independently.
	big := make(map[TermID]float64)
	for i := 0; i < 40; i++ {
		big[TermID(i*37%101)] = float64(i%5) - 0.5 // every fifth weight is negative
	}
	var terms []TermID
	for term, w := range big {
		if w > 0 {
			terms = append(terms, term)
		}
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i] < terms[j] })
	weights := make([]float64, len(terms))
	for i, term := range terms {
		weights[i] = big[term]
	}
	got, want := New(big).AppendBinary(nil), FromPairs(terms, weights).AppendBinary(nil)
	if len(terms) != 32 || !bytes.Equal(got, want) {
		t.Errorf("New over %d positive terms encodes as\n%x\nwant\n%x", len(terms), got, want)
	}
}

func TestFromPairsPanics(t *testing.T) {
	cases := []struct {
		name    string
		terms   []TermID
		weights []float64
	}{
		{"length mismatch", []TermID{1, 2}, []float64{1}},
		{"unsorted", []TermID{2, 1}, []float64{1, 1}},
		{"duplicate", []TermID{1, 1}, []float64{1, 1}},
		{"zero weight", []TermID{1}, []float64{0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("FromPairs(%v, %v) did not panic", tc.terms, tc.weights)
				}
			}()
			FromPairs(tc.terms, tc.weights)
		})
	}
}

func TestDot(t *testing.T) {
	a := vec(1, 2, 3, 4, 5, 1)
	b := vec(3, 3, 5, 2, 7, 9)
	want := 4.0*3 + 1*2
	if got := a.Dot(b); got != want {
		t.Errorf("Dot = %g, want %g", got, want)
	}
	if got := b.Dot(a); got != want {
		t.Errorf("Dot not symmetric: %g", got)
	}
	if got := a.Dot(Vector{}); got != 0 {
		t.Errorf("Dot with empty = %g", got)
	}
}

func TestNorm(t *testing.T) {
	a := vec(1, 3, 2, 4)
	if got := a.Norm2(); got != 25 {
		t.Errorf("Norm2 = %g, want 25", got)
	}
	if got := a.Norm(); got != 5 {
		t.Errorf("Norm = %g, want 5", got)
	}
	if Vector.Norm2(Vector{}) != 0 {
		t.Error("empty Norm2 != 0")
	}
}

func TestMinMax(t *testing.T) {
	a := vec(1, 2, 3, 5, 4, 1)
	b := vec(1, 3, 4, 4, 9, 2)
	min := a.Min(b)
	if !min.Equal(vec(1, 2, 4, 1)) {
		t.Errorf("Min = %v", min)
	}
	max := a.Max(b)
	if !max.Equal(vec(1, 3, 3, 5, 4, 4, 9, 2)) {
		t.Errorf("Max = %v", max)
	}
	if !a.Min(Vector{}).IsEmpty() {
		t.Error("Min with empty should be empty")
	}
	if !a.Max(Vector{}).Equal(a) {
		t.Error("Max with empty should be a")
	}
}

func TestDominatedBy(t *testing.T) {
	a := vec(1, 2, 3, 4)
	b := vec(1, 2, 2, 1, 3, 4)
	if !a.DominatedBy(b) {
		t.Error("a should be dominated by b")
	}
	if b.DominatedBy(a) {
		t.Error("b should not be dominated by a (extra term)")
	}
	if !Vector.DominatedBy(Vector{}, a) {
		t.Error("empty is dominated by anything")
	}
	c := vec(1, 2.5, 3, 4)
	if c.DominatedBy(a) {
		t.Error("larger weight should break domination")
	}
}

func TestCommonTerms(t *testing.T) {
	a := vec(1, 1, 2, 1, 3, 1)
	b := vec(2, 5, 3, 5, 4, 5)
	if got := a.CommonTerms(b); got != 2 {
		t.Errorf("CommonTerms = %d, want 2", got)
	}
}

func TestMinMaxIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a, b := randVector(rng, 20), randVector(rng, 20)
		min, max := a.Min(b), a.Max(b)
		if !min.DominatedBy(a) || !min.DominatedBy(b) {
			t.Fatalf("Min not dominated: a=%v b=%v min=%v", a, b, min)
		}
		if !a.DominatedBy(max) || !b.DominatedBy(max) {
			t.Fatalf("Max does not dominate: a=%v b=%v max=%v", a, b, max)
		}
		if !min.Equal(b.Min(a)) || !max.Equal(b.Max(a)) {
			t.Fatal("Min/Max not symmetric")
		}
		// dot(a,b) lies between dot(min,min) and dot(max,max).
		s := a.Dot(b)
		if s < min.Dot(min)-1e-12 || s > max.Dot(max)+1e-12 {
			t.Fatalf("dot outside envelope extremes: %g", s)
		}
	}
}

func randVector(rng *rand.Rand, vocab int) Vector {
	m := make(map[TermID]float64)
	n := rng.Intn(8)
	for i := 0; i < n; i++ {
		m[TermID(rng.Intn(vocab))] = rng.Float64()*4 + 0.05
	}
	return New(m)
}

func TestCloneAndEqual(t *testing.T) {
	a := vec(1, 2, 3, 4)
	c := a.Clone()
	if !a.Equal(c) {
		t.Error("clone should be equal")
	}
	if a.Equal(vec(1, 2)) || a.Equal(vec(1, 2, 3, 5)) {
		t.Error("Equal false positives")
	}
}

func TestString(t *testing.T) {
	s := vec(1, 2, 3, 4).String()
	if s != "{1:2, 3:4}" {
		t.Errorf("String = %q", s)
	}
	if Vector.String(Vector{}) != "{}" {
		t.Error("empty String")
	}
}

func TestWeightOfBinarySearch(t *testing.T) {
	// Larger vector to exercise the binary search path.
	m := make(map[TermID]float64)
	for i := 0; i < 100; i += 2 {
		m[TermID(i)] = float64(i + 1)
	}
	v := New(m)
	for i := 0; i < 100; i++ {
		want := 0.0
		if i%2 == 0 {
			want = float64(i + 1)
		}
		if got := v.WeightOf(TermID(i)); got != want {
			t.Fatalf("WeightOf(%d) = %g, want %g", i, got, want)
		}
	}
	if v.WeightOf(-1) != 0 || v.WeightOf(1000) != 0 {
		t.Error("out-of-range terms should have weight 0")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		v := randVector(rng, 1000)
		buf := v.AppendBinary(nil)
		if len(buf) != v.EncodedSize() {
			t.Fatalf("EncodedSize %d != written %d", v.EncodedSize(), len(buf))
		}
		got, n, err := DecodeVector(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		if !got.Equal(v) {
			t.Fatalf("round trip mismatch: %v != %v", got, v)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeVector(nil); err == nil {
		t.Error("nil buffer should fail")
	}
	if _, _, err := DecodeVector([]byte{5, 0, 0, 0}); err == nil {
		t.Error("truncated body should fail")
	}
	// Corrupt ordering: two terms 3, 1.
	v := vec(1, 1, 3, 1)
	buf := v.AppendBinary(nil)
	// Swap term ids in place.
	buf[4], buf[8] = 3, 1
	if _, _, err := DecodeVector(buf); err == nil {
		t.Error("out-of-order terms should fail")
	}
	// A weight that is not positive and finite, in place of term 3's.
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		buf := vec(1, 1, 3, 1).AppendBinary(nil)
		binary.LittleEndian.PutUint64(buf[len(buf)-8:], math.Float64bits(w))
		if _, _, err := DecodeVector(buf); err == nil {
			t.Errorf("weight %g should fail", w)
		}
	}
}

// TestDecodeOversizedCount: counts whose byte requirement overflows the
// old multiplied guard (4 + n*12 wraps at 32-bit int widths) must be
// rejected by header inspection, never fed to make(). The overflow exists
// only where int is 32 bits wide, so this test sees a multiplied guard
// only when run with GOARCH=386 (make test-386); the allocation bound
// holds the rejection to a few hundred bytes on every platform.
func TestDecodeOversizedCount(t *testing.T) {
	reject := func(what string, buf []byte) {
		t.Helper()
		var err error
		allocbound.Check(t, allocbound.Vector, len(buf), func() { _, _, err = DecodeVector(buf) })
		if err == nil {
			t.Errorf("DecodeVector accepted %s", what)
		}
	}
	for _, n := range []uint32{0xFFFFFFFF, 0x80000000, 0x15555556} {
		buf := binary.LittleEndian.AppendUint32(nil, n)
		buf = append(buf, make([]byte, 64)...)
		reject(fmt.Sprintf("count %#x with 64 payload bytes", n), buf)
	}
	// One byte short of the declared payload.
	short := binary.LittleEndian.AppendUint32(nil, 2)
	short = append(short, make([]byte, 2*(4+8)-1)...)
	reject("a truncated payload", short)
	// The guards must not over-reject: a valid blob still decodes exactly.
	good := vec(1, 1, 3, 1).AppendBinary(nil)
	if _, n, err := DecodeVector(good); err != nil || n != len(good) {
		t.Errorf("DecodeVector(valid) consumed %d, %v; want %d, nil", n, err, len(good))
	}
}

func TestEnvelopeEncodeDecode(t *testing.T) {
	a := vec(1, 1, 2, 2)
	b := vec(1, 3, 2, 4, 5, 1)
	e := Envelope{Int: a, Uni: b}
	buf := e.AppendBinary(nil)
	if len(buf) != e.EncodedSize() {
		t.Fatalf("EncodedSize mismatch")
	}
	got, n, err := DecodeEnvelope(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) || !got.Int.Equal(a) || !got.Uni.Equal(b) {
		t.Fatalf("round trip mismatch")
	}
	if _, _, err := DecodeEnvelope(buf[:3]); err == nil {
		t.Error("truncated envelope should fail")
	}
	if _, _, err := DecodeEnvelope(buf[:a.EncodedSize()+2]); err == nil {
		t.Error("truncated union vector should fail")
	}
}

func TestEJExactKnownValues(t *testing.T) {
	ej := EJ{}
	a := vec(1, 1, 2, 1)
	b := vec(2, 1, 3, 1)
	// dot = 1, |a|^2 = 2, |b|^2 = 2 => 1 / (2+2-1) = 1/3.
	if got := ej.Exact(a, b); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("EJ = %g, want 1/3", got)
	}
	if got := ej.Exact(a, a); got != 1 {
		t.Errorf("EJ self = %g, want 1", got)
	}
	if got := ej.Exact(a, Vector{}); got != 0 {
		t.Errorf("EJ with empty = %g, want 0", got)
	}
	// Binary weights reduce EJ to set Jaccard: |∩|/|∪| = 1/3.
	if got := ej.Exact(a, b); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("binary EJ = %g, want Jaccard 1/3", got)
	}
}

func TestCosineExactKnownValues(t *testing.T) {
	cos := Cosine{}
	a := vec(1, 1)
	b := vec(1, 1, 2, 1)
	want := 1 / math.Sqrt2
	if got := cos.Exact(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("cosine = %g, want %g", got, want)
	}
	if got := cos.Exact(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("cosine self = %g", got)
	}
	if got := cos.Exact(Vector{}, Vector{}); got != 0 {
		t.Errorf("cosine of empties = %g", got)
	}
}

func TestSimilarityRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sim := range []TextSim{EJ{}, Cosine{}} {
		for i := 0; i < 1000; i++ {
			a, b := randVector(rng, 30), randVector(rng, 30)
			s := sim.Exact(a, b)
			if s < 0 || s > 1 || math.IsNaN(s) {
				t.Fatalf("%s out of range: %g for %v %v", sim.Name(), s, a, b)
			}
			if s2 := sim.Exact(b, a); math.Abs(s-s2) > 1e-12 {
				t.Fatalf("%s not symmetric: %g vs %g", sim.Name(), s, s2)
			}
		}
	}
}

// TestBoundsContainExact is the central property test of the package: for
// random envelopes and random member vectors drawn inside them, the
// envelope bounds must bracket the exact similarity. The RSTkNN pruning
// rules are only correct if this holds.
func TestBoundsContainExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, sim := range []TextSim{EJ{}, Cosine{}} {
		t.Run(sim.Name(), func(t *testing.T) {
			for i := 0; i < 3000; i++ {
				e1, x := randEnvelopeWithMember(rng)
				e2, y := randEnvelopeWithMember(rng)
				lo, hi := sim.Bounds(e1, e2)
				s := sim.Exact(x, y)
				if s < lo-1e-9 || s > hi+1e-9 {
					t.Fatalf("iter %d: exact %g outside [%g, %g]\n e1=%v/%v x=%v\n e2=%v/%v y=%v",
						i, s, lo, hi, e1.Int, e1.Uni, x, e2.Int, e2.Uni, y)
				}
				if lo < 0 || hi > 1 || lo > hi {
					t.Fatalf("iter %d: malformed bounds [%g, %g]", i, lo, hi)
				}
			}
		})
	}
}

// randEnvelopeWithMember builds a random set of 1-4 documents, merges their
// exact envelopes the way an IUR-tree node would, and returns the envelope
// plus one member document.
func randEnvelopeWithMember(rng *rand.Rand) (Envelope, Vector) {
	n := 1 + rng.Intn(4)
	docs := make([]Vector, n)
	for i := range docs {
		docs[i] = randVector(rng, 15)
	}
	env := Exact(docs[0])
	for _, d := range docs[1:] {
		env = Merge(env, Exact(d))
	}
	return env, docs[rng.Intn(n)]
}

func TestEnvelopeContains(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		env, member := randEnvelopeWithMember(rng)
		if !env.Valid() {
			t.Fatalf("invalid envelope: %v / %v", env.Int, env.Uni)
		}
		if !env.Contains(member) {
			t.Fatalf("envelope %v/%v does not contain member %v", env.Int, env.Uni, member)
		}
	}
}

func TestExactEnvelopeBoundsCollapse(t *testing.T) {
	// For degenerate envelopes (single document), bounds equal the exact
	// similarity up to rounding.
	rng := rand.New(rand.NewSource(23))
	for _, sim := range []TextSim{EJ{}, Cosine{}} {
		for i := 0; i < 300; i++ {
			x, y := randVector(rng, 10), randVector(rng, 10)
			lo, hi := sim.Bounds(Exact(x), Exact(y))
			s := sim.Exact(x, y)
			if math.Abs(lo-s) > 1e-9 || math.Abs(hi-s) > 1e-9 {
				t.Fatalf("%s: degenerate bounds [%g,%g] != exact %g", sim.Name(), lo, hi, s)
			}
		}
	}
}

func TestMergeAll(t *testing.T) {
	if e := MergeAll(nil); !e.Int.IsEmpty() || !e.Uni.IsEmpty() {
		t.Error("MergeAll(nil) should be zero envelope")
	}
	a, b, c := vec(1, 1), vec(1, 2, 2, 1), vec(1, 3)
	e := MergeAll([]Envelope{Exact(a), Exact(b), Exact(c)})
	if !e.Int.Equal(vec(1, 1)) {
		t.Errorf("Int = %v", e.Int)
	}
	if !e.Uni.Equal(vec(1, 3, 2, 1)) {
		t.Errorf("Uni = %v", e.Uni)
	}
}

// TestMergeAllMatchesFold: the one-pass merge must equal folding Merge
// over the list, bit for bit, at every list length.
func TestMergeAllMatchesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randVec := func() Vector {
		m := map[TermID]float64{}
		for i := rng.Intn(6); i > 0; i-- {
			m[TermID(rng.Intn(12))] = float64(1+rng.Intn(8)) / 4
		}
		return New(m)
	}
	for trial := 0; trial < 200; trial++ {
		es := make([]Envelope, 1+rng.Intn(8))
		for i := range es {
			a, b := randVec(), randVec()
			es[i] = Envelope{Int: a.Min(b), Uni: a.Max(b)}
		}
		want := es[0]
		for _, e := range es[1:] {
			want = Merge(want, e)
		}
		got := MergeAll(es)
		if !got.Int.Equal(want.Int) || !got.Uni.Equal(want.Uni) ||
			got.Int.Norm2() != want.Int.Norm2() || got.Uni.Norm2() != want.Uni.Norm2() {
			t.Fatalf("trial %d: MergeAll = %v, fold = %v", trial, got, want)
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("ej") == nil || ByName("cosine") == nil {
		t.Error("known measures should resolve")
	}
	if ByName("nope") != nil {
		t.Error("unknown measure should be nil")
	}
}

// TestEnvelopeMergeQuick is the testing/quick form of the envelope
// invariant: for arbitrary weight maps, the merged envelope of the exact
// envelopes contains both source vectors.
func TestEnvelopeMergeQuick(t *testing.T) {
	f := func(m1, m2 map[int32]float64) bool {
		a, b := New(m1), New(m2)
		env := Merge(Exact(a), Exact(b))
		return env.Valid() && env.Contains(a) && env.Contains(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDotSymmetricQuick: Dot is symmetric and non-negative for the
// positive-weight vectors New produces.
func TestDotSymmetricQuick(t *testing.T) {
	f := func(m1, m2 map[int32]float64) bool {
		a, b := New(m1), New(m2)
		d1, d2 := a.Dot(b), b.Dot(a)
		return d1 == d2 && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
