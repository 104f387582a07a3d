package vector

// Scatter holds one vector's weights in a dense, term-indexed buffer, so
// that a pass computing many inner products against that one vector pays
// O(the other vector's terms) per product instead of a merge over both.
//
// A bound pass fixes one side (a candidate group's envelope) and bounds
// every contributor against it. Load scatters the fixed side once, Dot
// gathers over each contributor's terms, and Clear zeroes the touched
// slots when the pass ends, leaving the buffer ready for the next Load.
//
// Dot returns exactly Vector.Dot's float64. Vector.Dot adds the products
// of the matched terms in ascending term order. The gather walks the
// other vector's terms in ascending order too, so matched terms add the
// same products (multiplication commutes) in the same order, and every
// unmatched term adds 0*w = +0 (weights are positive and finite), which
// leaves a sum that starts at +0 unchanged.
//
// A pass must Load its side before the first Dot: Dot panics on a
// Scatter that holds nothing, and Holds lets a caller check that the
// loaded vector is the side it bounds against.
//
// The zero Scatter is ready to use. It is not safe for concurrent use.
type Scatter struct {
	w []float64 // w[t] = weight of term t in v; zero for every other slot
	v Vector    // the loaded vector
	// loaded reports whether a Load has not yet been followed by Clear.
	loaded bool
	// dense reports whether v is held in w. A vector with a negative
	// term or a term past maxScatterTerms stays sparse, and Dot merges.
	dense bool
}

// maxScatterTerms caps the dense buffer at 8 MB: a term ID beyond it
// (only a corrupt or enormous vocabulary has one) is served by the
// merge instead of growing the buffer to the ID.
const maxScatterTerms = 1 << 20

// Load scatters v into the buffer. The buffer must be clear: call Clear
// at the end of every pass.
//
//rstknn:hotpath once per bound pass over a fixed side
func (s *Scatter) Load(v Vector) {
	s.v = v
	s.loaded = true
	s.dense = false
	n := len(v.terms)
	if n == 0 || v.terms[0] < 0 || v.terms[n-1] >= maxScatterTerms {
		return
	}
	if need := int(v.terms[n-1]) + 1; need > len(s.w) {
		// The buffer is all zeros between passes, so growing needs no
		// copy; doubling keeps regrowth rare as larger IDs appear.
		if need < 2*len(s.w) {
			need = 2 * len(s.w)
		}
		if need > maxScatterTerms {
			need = maxScatterTerms
		}
		s.w = make([]float64, need) //rstknn:allow hotalloc grown to the largest scattered term ID, reused across passes
	}
	w := s.w
	for i, t := range v.terms {
		w[t] = v.weights[i]
	}
	s.dense = true
}

// Dot returns the inner product of the loaded vector and u, bit-identical
// to Vector.Dot.
//
//rstknn:hotpath one call per contributor bound in a pass
func (s *Scatter) Dot(u Vector) float64 {
	if !s.loaded {
		panic("vector: Scatter.Dot without a loaded vector")
	}
	v := s.v
	if len(v.terms) == 0 || len(u.terms) == 0 ||
		v.terms[len(v.terms)-1] < u.terms[0] || u.terms[len(u.terms)-1] < v.terms[0] {
		return 0
	}
	// A far shorter loaded side is cheaper to binary-search into u than
	// to gather over all of u's terms.
	if !s.dense || len(v.terms)*8 < len(u.terms) || u.terms[0] < 0 {
		return v.Dot(u)
	}
	w := s.w
	var sum float64
	for j, t := range u.terms {
		if int(t) >= len(w) {
			break // u's remaining terms are all past the loaded ones
		}
		sum += w[t] * u.weights[j]
	}
	return sum
}

// Clear zeroes the slots the last Load wrote and forgets the vector.
//
//rstknn:hotpath once per bound pass over a fixed side
func (s *Scatter) Clear() {
	if s.dense {
		w := s.w
		for _, t := range s.v.terms {
			w[t] = 0
		}
	}
	s.v = Vector{}
	s.loaded = false
	s.dense = false
}

// Holds reports whether v is the loaded vector itself: the same terms
// and weights in memory, not merely equal ones. A loaded empty vector is
// held for every empty v.
//
//rstknn:hotpath one check per contributor bound in a pass
func (s *Scatter) Holds(v Vector) bool {
	if !s.loaded || len(v.terms) != len(s.v.terms) {
		return false
	}
	return len(v.terms) == 0 ||
		(&v.terms[0] == &s.v.terms[0] && &v.weights[0] == &s.v.weights[0])
}
