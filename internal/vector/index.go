package vector

import "math/bits"

// termIndex locates a term of a long vector in O(1): a bitmap over the
// vector's term span, bit t-lo set for each term t, plus the number of
// terms in the words before each word. A term's position in the vector
// is then its word's rank plus the set bits below it in its word: one
// bit test and one popcount, where a binary search pays log2 of the
// vector's length in dependent, unpredictable branches.
//
// The index is immutable and shared by every copy of the Vector value
// that carries it.
type termIndex struct {
	lo    TermID   // the vector's first term, bit 0 of words[0]
	words []uint64 // bit i of words[w] is set iff term lo+64w+i is present
	rank  []int32  // rank[w] = number of terms in words[:w]
}

// minIndexTerms is the shortest vector WithIndex indexes. Below it a
// binary search takes at most five steps, and the asymmetric dot, the
// index's only reader, needs the other side eight times shorter still.
const minIndexTerms = 32

// WithIndex returns v carrying a term index, or v itself when v is
// shorter than minIndexTerms or its terms are too sparse: the bitmap is
// built only when it needs no more 64-bit words than v has terms, so the
// index (12 bytes a word) never outweighs v's encoding (12 bytes a
// term). The terms and weights stay shared with v.
//
// Dot uses the index when the other side is the far shorter one; its
// result is bit-identical to Dot without the index.
func (v Vector) WithIndex() Vector {
	n := len(v.terms)
	if n < minIndexTerms {
		return v
	}
	lo := v.terms[0]
	// int64: the span of int32 IDs can exceed the int32 range.
	words := (int64(v.terms[n-1])-int64(lo))/64 + 1
	if words > int64(n) {
		return v
	}
	x := &termIndex{lo: lo, words: make([]uint64, words), rank: make([]int32, words)}
	for _, t := range v.terms {
		off := uint32(t) - uint32(lo)
		x.words[off>>6] |= 1 << (off & 63)
	}
	var r int32
	for w, word := range x.words {
		x.rank[w] = r
		r += int32(bits.OnesCount64(word))
	}
	v.idx = x
	return v
}

// HasIndex reports whether v carries a term index (see WithIndex).
func (v Vector) HasIndex() bool { return v.idx != nil }

// dotIndexed is dotAsymmetric for a large side that carries an index:
// each small-side term is found by a bit test and a popcount. Matches
// accumulate in ascending term order, so the sum is bit-identical to
// dotAsymmetric's and the merge's.
//
//rstknn:hotpath the asymmetric branch of Dot for an indexed long side
func dotIndexed(small, large Vector) float64 {
	x := large.idx
	var s float64
	for i, t := range small.terms {
		if t < x.lo {
			continue
		}
		off := uint32(t) - uint32(x.lo)
		w := int(off >> 6)
		if w >= len(x.words) {
			break // this and every later small-side term lie past the span
		}
		word := x.words[w]
		bit := uint64(1) << (off & 63)
		if word&bit == 0 {
			continue
		}
		s += small.weights[i] * large.weights[int(x.rank[w])+bits.OnesCount64(word&(bit-1))]
	}
	return s
}
