package vector

import (
	"cmp"
	"math"
	"slices"
)

// Envelope is the textual summary an IUR-tree node stores for its subtree:
// the intersection vector Int (per-term minimum weight over all member
// documents; a term missing from any member has minimum 0 and is dropped)
// and the union vector Uni (per-term maximum weight). Every member vector x
// of the subtree satisfies Int <= x <= Uni coordinate-wise, which is the
// property all textual bounds rely on.
type Envelope struct {
	Int Vector
	Uni Vector
}

// Exact returns the degenerate envelope of a single document: both bounds
// equal the document vector.
func Exact(v Vector) Envelope { return Envelope{Int: v, Uni: v} }

// EmptyEnvelope returns the identity element for Merge: merging it with an
// envelope e yields e. Int is nil (treated as "all terms at +inf" is what a
// true identity would need, so Merge special-cases emptiness via the count
// argument instead — see Merge).
func EmptyEnvelope() Envelope { return Envelope{} }

// Merge combines two envelopes that each summarize a non-empty set of
// documents: the intersection vectors are intersected (coordinate-wise
// min), the union vectors are united (coordinate-wise max).
func Merge(a, b Envelope) Envelope {
	return Envelope{
		Int: a.Int.Min(b.Int),
		Uni: a.Uni.Max(b.Uni),
	}
}

// MergeAll merges a list of envelopes in one pass: Int keeps the terms
// every Int holds, at their minimum weight, and Uni every term, at its
// maximum weight. The result equals folding Merge over the list (min and
// max do not depend on order), but a fold allocates every intermediate
// union, quadratic in the list length, while MergeAll allocates in
// proportion to the total terms. It returns the zero Envelope when the
// list is empty and es[0] itself for a list of one.
func MergeAll(es []Envelope) Envelope {
	switch len(es) {
	case 0:
		return Envelope{}
	case 1:
		return es[0]
	}
	var ints, unis []termWeight
	for i := range es {
		ints = es[i].Int.appendPairs(ints)
		unis = es[i].Uni.appendPairs(unis)
	}
	return Envelope{
		Int: foldPairs(ints, len(es), math.Min),
		Uni: foldPairs(unis, 1, math.Max),
	}
}

type termWeight struct {
	t TermID
	w float64
}

func (v Vector) appendPairs(dst []termWeight) []termWeight {
	for i, t := range v.terms {
		dst = append(dst, termWeight{t, v.weights[i]})
	}
	return dst
}

// foldPairs sorts pairs by term and folds each term's weights with pick,
// keeping the terms that occur at least need times. It compacts the kept
// terms into the front of pairs before copying them out.
func foldPairs(pairs []termWeight, need int, pick func(a, b float64) float64) Vector {
	slices.SortFunc(pairs, func(a, b termWeight) int { return cmp.Compare(a.t, b.t) })
	kept := pairs[:0]
	for i := 0; i < len(pairs); {
		j, w := i+1, pairs[i].w
		for ; j < len(pairs) && pairs[j].t == pairs[i].t; j++ {
			w = pick(w, pairs[j].w)
		}
		if j-i >= need {
			kept = append(kept, termWeight{pairs[i].t, w})
		}
		i = j
	}
	if len(kept) == 0 {
		return Vector{}
	}
	terms := make([]TermID, len(kept))
	weights := make([]float64, len(kept))
	for i, p := range kept {
		terms[i], weights[i] = p.t, p.w
	}
	return newVector(terms, weights)
}

// Contains reports whether vector x lies inside the envelope:
// Int <= x <= Uni coordinate-wise.
func (e Envelope) Contains(x Vector) bool {
	return e.Int.DominatedBy(x) && x.DominatedBy(e.Uni)
}

// Valid reports whether Int <= Uni coordinate-wise, the structural
// invariant of every envelope.
func (e Envelope) Valid() bool { return e.Int.DominatedBy(e.Uni) }

// Clone deep-copies the envelope.
func (e Envelope) Clone() Envelope {
	return Envelope{Int: e.Int.Clone(), Uni: e.Uni.Clone()}
}
