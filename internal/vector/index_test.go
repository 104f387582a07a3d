package vector

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// dotMerge is the reference inner product: the merge over both term
// lists that Dot runs for vectors of similar length.
func dotMerge(v, u Vector) float64 {
	var s float64
	i, j := 0, 0
	for i < len(v.terms) && j < len(u.terms) {
		switch {
		case v.terms[i] == u.terms[j]:
			s += v.weights[i] * u.weights[j]
			i++
			j++
		case v.terms[i] < u.terms[j]:
			i++
		default:
			j++
		}
	}
	return s
}

// checkIndexedDot fails t unless every path to <small, large> agrees to
// the bit: dotIndexed over large's index, dotAsymmetric, the merge, and
// Dot in both operand orders with and without the index.
func checkIndexedDot(t *testing.T, small, large Vector) {
	t.Helper()
	want := dotMerge(small, large)
	type path struct {
		name string
		got  float64
	}
	paths := []path{
		{"dotAsymmetric", dotAsymmetric(small, large)},
		{"Dot", small.Dot(large)},
		{"Dot swapped", large.Dot(small)},
	}
	if ix := large.WithIndex(); ix.HasIndex() {
		paths = append(paths,
			path{"dotIndexed", dotIndexed(small, ix)},
			path{"indexed Dot", small.Dot(ix)},
			path{"indexed Dot swapped", ix.Dot(small)})
	}
	for _, p := range paths {
		if !sameBits(p.got, want) {
			t.Errorf("%s(%v, %d terms over [%d, %d]) = %v, merge %v",
				p.name, small, large.Len(), large.terms[0], large.terms[large.Len()-1], p.got, want)
		}
	}
}

// TestIndexedDotMatchesMerge covers the word and span edges of the
// bitmap, short sides below, above and inside the span, negative IDs
// and empty vectors, then random pairs.
func TestIndexedDotMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// 200 terms over [1000, 1199]: bits 0, 63 and 64 of a word are
	// terms 1000, 1063 and 1064; 1199 is the span's last term.
	dense := vecOf(rng, span(1000, 200, 1)...)
	// Every third term over [-3000, -2403]: terms on both sides of a
	// word boundary, with holes between them.
	holes := vecOf(rng, span(-3000, 200, 3)...)
	// 64 terms at the extremes of the ID range.
	low := vecOf(rng, span(math.MinInt32, 64, 1)...)
	high := vecOf(rng, span(math.MaxInt32-63, 64, 1)...)
	for _, large := range []Vector{dense, holes, low, high} {
		if !large.WithIndex().HasIndex() {
			t.Fatalf("%d terms over [%d, %d] were not indexed", large.Len(), large.terms[0], large.terms[large.Len()-1])
		}
	}
	cases := []struct {
		small, large Vector
	}{
		{vecOf(rng, 1000, 1063, 1064, 1199), dense},     // word bits 0, 63, 64 and the span's end
		{vecOf(rng, 1000), dense},                       // the span's first term alone
		{vecOf(rng, 1199), dense},                       // the span's last term alone
		{vecOf(rng, 1127, 1128), dense},                 // bit 63 and bit 0 of the next word
		{vecOf(rng, 3, 500, 999), dense},                // wholly below the span
		{vecOf(rng, 1200, 5000, math.MaxInt32), dense},  // wholly above the span
		{vecOf(rng, 999, 1000, 1199, 1200), dense},      // straddling both ends
		{vecOf(rng, 1001, 1050, 1100, 1150), dense},     // inside
		{vecOf(rng, -3000, -2999, -2997, -2403), holes}, // hits and misses at negative IDs
		{vecOf(rng, -2937, -2936, -2935, -2934), holes}, // around a word boundary
		{vecOf(rng, -5, 0, 7), holes},                   // above a negative span
		{vecOf(rng, math.MinInt32, math.MinInt32+63, 0), low},
		{vecOf(rng, math.MinInt32, math.MaxInt32-63, math.MaxInt32), high},
		{Vector{}, dense}, // empty short side
	}
	for _, c := range cases {
		checkIndexedDot(t, c.small, c.large)
	}
	if got := dense.WithIndex().Dot(Vector{}); got != 0 {
		t.Errorf("indexed Dot with an empty vector = %v", got)
	}
	if (Vector{}).WithIndex().HasIndex() {
		t.Error("the empty vector was indexed")
	}
	for i := 0; i < 500; i++ {
		nl := minIndexTerms + rng.Intn(200)
		large := randomVec(rng, nl, nl+rng.Intn(2*nl))
		small := randomVec(rng, 1+rng.Intn(nl/8), nl+rng.Intn(4*nl))
		checkIndexedDot(t, small, large)
	}
}

// TestWithIndexRefusesSparseAndShort: a vector below minIndexTerms, or
// one whose span needs more bitmap words than it has terms, is returned
// without an index and without allocating.
func TestWithIndexRefusesSparseAndShort(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	// 32 terms over 2^31 IDs: a bitmap would take 2^25 words.
	sparse := vecOf(rng, span(0, 32, 1<<26)...)
	short := vecOf(rng, span(0, minIndexTerms-1, 1)...)
	// 64 words for 64 terms is the sparsest span still indexed; one
	// more word is refused.
	edge := vecOf(rng, span(0, 64, 64)...)
	pastEdge := vecOf(rng, append(span(0, 63, 64), 64*64)...)
	for _, c := range []struct {
		name    string
		v       Vector
		indexed bool
	}{
		{"2^31-ID span", sparse, false},
		{"short", short, false},
		{"one word per term", edge, true},
		{"one word more than terms", pastEdge, false},
	} {
		if got := c.v.WithIndex().HasIndex(); got != c.indexed {
			t.Errorf("%s: HasIndex = %v, want %v", c.name, got, c.indexed)
		}
		if c.indexed {
			continue
		}
		if allocs := testing.AllocsPerRun(10, func() { c.v.WithIndex() }); allocs != 0 {
			t.Errorf("%s: refused WithIndex allocates %v times", c.name, allocs)
		}
	}
}

// TestIndexedDotAllocFree: the indexed branch of Dot stays on the
// allocation-free scoring path.
func TestIndexedDotAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	large := randomVec(rng, 200, 400).WithIndex()
	small := randomVec(rng, 3, 400)
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() { sink += small.Dot(large) }); allocs != 0 {
		t.Errorf("indexed Dot allocates %v per run, want 0", allocs)
	}
	_ = sink
}

// indexFuzzVectors decodes a FuzzIndexedDot input: byte 0 is the number
// g of gap bytes, bytes 1-4 the large side's first term (int32, little
// endian), then g gaps, each the distance to the next large-side term
// (255 stands for a jump of 2^24, so some spans are too sparse to
// index), then the small side's terms as int16 offsets from the first
// term. Terms past the int32 range are dropped.
func indexFuzzVectors(data []byte) (small, large Vector, ok bool) {
	if len(data) < 5 {
		return Vector{}, Vector{}, false
	}
	g := int(data[0])
	base := int64(int32(binary.LittleEndian.Uint32(data[1:])))
	rest := data[5:]
	if g > len(rest) {
		g = len(rest)
	}
	weight := func(i int) float64 { return 0.5 + float64(i%7)*0.375 }
	lm := map[TermID]float64{TermID(base): weight(0)}
	t := base
	for i, gap := range rest[:g] {
		step := int64(gap) + 1
		if gap == 255 {
			step = 1 << 24
		}
		if t += step; t > math.MaxInt32 {
			break
		}
		lm[TermID(t)] = weight(i + 1)
	}
	sm := map[TermID]float64{}
	for i := g; i+1 < len(rest); i += 2 {
		t := base + int64(int16(binary.LittleEndian.Uint16(rest[i:])))
		if t >= math.MinInt32 && t <= math.MaxInt32 {
			sm[TermID(t)] = weight(i) + 1.125
		}
	}
	return New(sm), New(lm), true
}

// FuzzIndexedDot checks every dot path against the merge on vectors
// built from arbitrary bytes (see indexFuzzVectors), and that WithIndex
// indexes exactly the vectors its rule admits.
func FuzzIndexedDot(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{40, 0, 0, 0, 128, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 0, 64, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		small, large, ok := indexFuzzVectors(data)
		if !ok {
			return
		}
		n := large.Len()
		words := (int64(large.terms[n-1])-int64(large.terms[0]))/64 + 1
		want := n >= minIndexTerms && words <= int64(n)
		if got := large.WithIndex().HasIndex(); got != want {
			t.Fatalf("%d terms in %d words: HasIndex = %v, want %v", n, words, got, want)
		}
		checkIndexedDot(t, small, large)
	})
}
