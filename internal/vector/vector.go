// Package vector implements the sparse weighted term vectors used to
// represent object text descriptions, the textual similarity measures of
// the RSTkNN paper (Extended Jaccard, cosine, and keyword overlap as
// Extended Jaccard over binary weights), and — crucially — the
// intersection/union *envelopes* stored in IUR-tree nodes together with
// provably correct lower/upper bounds of the similarity between any two
// vectors drawn from two envelopes.
package vector

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// TermID identifies a vocabulary term. IDs are dense and assigned by
// textual.Vocabulary.
type TermID = int32

// Vector is a sparse term vector: parallel slices of term IDs (strictly
// increasing) and positive weights. The zero Vector is the empty vector.
//
// Vectors are immutable by convention: operations return new vectors.
type Vector struct {
	terms   []TermID
	weights []float64
	norm2   float64    // cached squared norm; vectors are immutable
	idx     *termIndex // set by WithIndex; nil for every other vector
}

// New builds a vector from a term->weight map. Terms with non-positive
// weight are dropped. Construction is on the index-build hot path (one
// call per document plus one per node envelope merge), so the term sort
// is slices.Sort, which allocates nothing, not sort.Slice.
func New(w map[TermID]float64) Vector {
	if len(w) == 0 {
		return Vector{}
	}
	terms := make([]TermID, 0, len(w))
	for t, wt := range w {
		if wt > 0 {
			terms = append(terms, t)
		}
	}
	slices.Sort(terms)
	weights := make([]float64, len(terms))
	for i, t := range terms {
		weights[i] = w[t]
	}
	return newVector(terms, weights)
}

// newVector wraps pre-validated parallel slices, caching the norm.
func newVector(terms []TermID, weights []float64) Vector {
	var n2 float64
	for _, w := range weights {
		n2 += w * w
	}
	return Vector{terms: terms, weights: weights, norm2: n2}
}

// FromPairs builds a vector from pre-sorted (terms, weights) slices. It
// panics if the slices differ in length or terms are not strictly
// increasing, or any weight is non-positive: these invariants are relied on
// by every merge-based operation below.
func FromPairs(terms []TermID, weights []float64) Vector {
	if len(terms) != len(weights) {
		panic(fmt.Sprintf("vector: %d terms but %d weights", len(terms), len(weights)))
	}
	for i := range terms {
		if i > 0 && terms[i] <= terms[i-1] {
			panic(fmt.Sprintf("vector: terms not strictly increasing at %d", i))
		}
		if weights[i] <= 0 {
			panic(fmt.Sprintf("vector: non-positive weight %g for term %d", weights[i], terms[i]))
		}
	}
	return newVector(terms, weights)
}

// Len returns the number of distinct terms with positive weight.
func (v Vector) Len() int { return len(v.terms) }

// IsEmpty reports whether v has no terms.
func (v Vector) IsEmpty() bool { return len(v.terms) == 0 }

// Term returns the i-th term ID.
func (v Vector) Term(i int) TermID { return v.terms[i] }

// Weight returns the i-th weight.
func (v Vector) Weight(i int) float64 { return v.weights[i] }

// WeightOf returns the weight of term t, or 0 when absent.
func (v Vector) WeightOf(t TermID) float64 {
	i := sort.Search(len(v.terms), func(i int) bool { return v.terms[i] >= t })
	if i < len(v.terms) && v.terms[i] == t {
		return v.weights[i]
	}
	return 0
}

// Has reports whether term t has positive weight in v.
func (v Vector) Has(t TermID) bool { return v.WeightOf(t) > 0 }

// Terms returns a copy of the term IDs.
func (v Vector) Terms() []TermID {
	out := make([]TermID, len(v.terms))
	copy(out, v.terms)
	return out
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	t := make([]TermID, len(v.terms))
	w := make([]float64, len(v.weights))
	copy(t, v.terms)
	copy(w, v.weights)
	return Vector{terms: t, weights: w, norm2: v.norm2}
}

// Equal reports whether v and u contain exactly the same terms and weights.
func (v Vector) Equal(u Vector) bool {
	if len(v.terms) != len(u.terms) {
		return false
	}
	for i := range v.terms {
		if v.terms[i] != u.terms[i] || v.weights[i] != u.weights[i] {
			return false
		}
	}
	return true
}

// Dot returns the inner product of v and u. It never allocates, and the
// matched terms are always accumulated in ascending term order, so the
// summation order — hence the exact float64 result — is identical across
// all three code paths below and deterministic for a given pair of
// vectors.
//
//rstknn:hotpath called once per bound evaluation in the scoring inner loop
func (v Vector) Dot(u Vector) float64 {
	// Disjoint term ranges (distinct topical vocabularies, a frequent
	// case on clustered trees) are detected in O(1).
	if len(v.terms) == 0 || len(u.terms) == 0 ||
		v.terms[len(v.terms)-1] < u.terms[0] || u.terms[len(u.terms)-1] < v.terms[0] {
		return 0
	}
	// Asymmetric fast path: a short query vector against a wide node
	// envelope (the dominant shape in entry bounds) looks each
	// short-side term up in the long side instead of merging through
	// every long-side term: through the long side's term index when it
	// has one (see WithIndex), by binary search otherwise.
	if len(v.terms)*8 < len(u.terms) {
		if u.idx != nil {
			return dotIndexed(v, u)
		}
		return dotAsymmetric(v, u)
	}
	if len(u.terms)*8 < len(v.terms) {
		if v.idx != nil {
			return dotIndexed(u, v)
		}
		return dotAsymmetric(u, v)
	}
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

// dotAsymmetric computes the inner product when small has far fewer terms
// than large: O(|small| log |large|) via a shrinking binary-search window.
// Matches accumulate in ascending term order, like the merge loop.
func dotAsymmetric(small, large Vector) float64 {
	var s float64
	lo := 0
	for i := range small.terms {
		t := small.terms[i]
		// Binary search for t in large.terms[lo:].
		hi := len(large.terms)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if large.terms[mid] < t {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo >= len(large.terms) {
			break
		}
		if large.terms[lo] == t {
			s += small.weights[i] * large.weights[lo]
			lo++
		}
	}
	return s
}

// Norm2 returns the squared Euclidean norm of v (cached at construction).
func (v Vector) Norm2() float64 { return v.norm2 }

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Norm2()) }

// Min returns the coordinate-wise minimum of v and u: only terms present in
// both survive, with the smaller weight. This is the "intersection vector"
// combination rule of IUR-tree nodes.
func (v Vector) Min(u Vector) Vector {
	var terms []TermID
	var weights []float64
	i, j := 0, 0
	for i < len(v.terms) && j < len(u.terms) {
		switch {
		case v.terms[i] == u.terms[j]:
			terms = append(terms, v.terms[i])
			weights = append(weights, math.Min(v.weights[i], u.weights[j]))
			i++
			j++
		case v.terms[i] < u.terms[j]:
			i++
		default:
			j++
		}
	}
	return newVector(terms, weights)
}

// Max returns the coordinate-wise maximum of v and u: all terms of either,
// with the larger weight. This is the "union vector" combination rule of
// IUR-tree nodes.
func (v Vector) Max(u Vector) Vector {
	terms := make([]TermID, 0, len(v.terms)+len(u.terms))
	weights := make([]float64, 0, len(v.terms)+len(u.terms))
	i, j := 0, 0
	for i < len(v.terms) || j < len(u.terms) {
		switch {
		case j >= len(u.terms) || (i < len(v.terms) && v.terms[i] < u.terms[j]):
			terms = append(terms, v.terms[i])
			weights = append(weights, v.weights[i])
			i++
		case i >= len(v.terms) || u.terms[j] < v.terms[i]:
			terms = append(terms, u.terms[j])
			weights = append(weights, u.weights[j])
			j++
		default:
			terms = append(terms, v.terms[i])
			weights = append(weights, math.Max(v.weights[i], u.weights[j]))
			i++
			j++
		}
	}
	return newVector(terms, weights)
}

// CommonTerms returns the number of terms present in both vectors.
func (v Vector) CommonTerms(u Vector) int {
	n := 0
	i, j := 0, 0
	for i < len(v.terms) && j < len(u.terms) {
		switch {
		case v.terms[i] == u.terms[j]:
			n++
			i++
			j++
		case v.terms[i] < u.terms[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// DominatedBy reports whether v is coordinate-wise <= u (every term of v
// appears in u with at least v's weight). Envelope invariant checks use it.
func (v Vector) DominatedBy(u Vector) bool {
	i, j := 0, 0
	for i < len(v.terms) {
		for j < len(u.terms) && u.terms[j] < v.terms[i] {
			j++
		}
		if j >= len(u.terms) || u.terms[j] != v.terms[i] || u.weights[j] < v.weights[i] {
			return false
		}
		i++
	}
	return true
}

func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i := range v.terms {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d:%.3g", v.terms[i], v.weights[i])
	}
	b.WriteByte('}')
	return b.String()
}
