package vector

import "math"

// TextSim is a textual similarity measure together with envelope bounds.
// Implementations must guarantee, for any vectors x in e1 and y in e2:
//
//	lo, hi := Bounds(e1, e2)  =>  lo <= Exact(x, y) <= hi
//
// and Exact must be symmetric with range [0, 1].
//
// Every measure is one combine step over two inner products. Combine
// turns sMax = <e1.Uni, e2.Uni> and sMin = <e1.Int, e2.Int> into the
// bounds; Bounds computes the two products by merge and combines them;
// Exact is Combine's upper bound over the single-document envelopes of x
// and y, where sMax = <x,y> and the upper bound is the similarity itself;
// it takes the norms from the two vectors and skips the lower bound. A caller that already holds sMax (the core scorer
// gathers it from a scattered side, see Scatter) calls Combine directly,
// so there is one bound path.
type TextSim interface {
	// Name returns a short identifier ("ej", "cosine").
	Name() string
	// Exact returns the similarity of two concrete vectors.
	Exact(x, y Vector) float64
	// Bounds returns a lower and an upper bound of the similarity between
	// any member of e1 and any member of e2.
	Bounds(e1, e2 Envelope) (lo, hi float64)
	// Combine returns Bounds(*e1, *e2) given its two inner products,
	// sMax = <e1.Uni, e2.Uni> and sMin = <e1.Int, e2.Int>. When sMax is
	// not positive the result is (0, 0) and sMin is not read, so callers
	// may skip computing it.
	Combine(sMax, sMin float64, e1, e2 *Envelope) (lo, hi float64)
}

// envelopeDots returns Combine's two inner products by merge, skipping
// sMin when sMax already decides the bounds.
func envelopeDots(e1, e2 *Envelope) (sMax, sMin float64) {
	sMax = e1.Uni.Dot(e2.Uni)
	if sMax > 0 {
		sMin = e1.Int.Dot(e2.Int)
	}
	return sMax, sMin
}

// EJ is the Extended Jaccard similarity of the RSTkNN paper:
//
//	EJ(x, y) = <x,y> / (|x|^2 + |y|^2 - <x,y>)
//
// For binary-weighted vectors this reduces to set Jaccard (keyword
// overlap), so the paper's third measure is EJ over binary weights.
//
// Bound derivation. Write s = <x,y>, n = |x|^2 + |y|^2, f(s,n) = s/(n-s).
// By Cauchy-Schwarz and AM-GM, n >= 2|x||y| >= 2s, so n - s >= s >= 0 and
// f is in [0,1]. On that domain f is non-decreasing in s and non-increasing
// in n. With x in [i1,u1] and y in [i2,u2] coordinate-wise (all weights
// non-negative):
//
//	s in [<i1,i2>, <u1,u2>]   and   n in [|i1|^2+|i2|^2, |u1|^2+|u2|^2]
//
// hence f(<i1,i2>, |u1|^2+|u2|^2) <= EJ(x,y) <= f(<u1,u2>, |i1|^2+|i2|^2),
// with the upper bound clipped to 1 when the denominator is not positive
// (the envelope extremes need not be jointly attainable; the bound is
// still valid because EJ(x,y) <= 1 always).
type EJ struct{}

// Name implements TextSim.
func (EJ) Name() string { return "ej" }

// Exact implements TextSim. With s = <x,y> and d = |x|^2 + |y|^2 - s it
// is 0 when s <= 0, 1 when d <= 0 (x == y up to rounding), and s/d
// otherwise, clipped to 1 against rounding.
//
//rstknn:hotpath exact similarity inside the accept/reject loop
func (EJ) Exact(x, y Vector) float64 {
	s := x.Dot(y)
	if s <= 0 {
		return 0 // disjoint documents, the common case of a scan
	}
	n := x.Norm2() + y.Norm2()
	_, hi := ejCombine(s, 0, n, n)
	return hi
}

// Bounds implements TextSim.
//
//rstknn:hotpath envelope bounds inside the branch-and-bound inner loop
func (m EJ) Bounds(e1, e2 Envelope) (lo, hi float64) {
	sMax, sMin := envelopeDots(&e1, &e2)
	return m.Combine(sMax, sMin, &e1, &e2)
}

// Combine implements TextSim.
//
//rstknn:hotpath one call per bound and exact evaluation
func (EJ) Combine(sMax, sMin float64, e1, e2 *Envelope) (lo, hi float64) {
	return ejCombine(sMax, sMin, e1.Int.Norm2()+e2.Int.Norm2(), e1.Uni.Norm2()+e2.Uni.Norm2())
}

// ejCombine is EJ's combine step over the squared-norm sums of the two
// intersection vectors (nMin) and the two union vectors (nMax). For two
// single documents both sums are |x|^2 + |y|^2 and hi is EJ(x, y).
//
//rstknn:hotpath one call per bound and exact evaluation
func ejCombine(sMax, sMin, nMin, nMax float64) (lo, hi float64) {
	// Disjoint unions are the common case on clustered trees: every
	// member similarity is 0 and no further arithmetic is needed.
	if sMax <= 0 {
		return 0, 0
	}
	if sMin > 0 {
		lo = sMin / (nMax - sMin)
	}
	if den := nMin - sMax; den > 0 {
		hi = math.Min(1, sMax/den)
	} else {
		hi = 1
	}
	if lo > hi { // guard against rounding inversions on degenerate envelopes
		lo = hi
	}
	return lo, hi
}

// Cosine is the cosine similarity <x,y> / (|x| |y|), an alternative SimT
// discussed by the paper. Empty vectors have similarity 0.
//
// Bound derivation mirrors EJ: cosine is non-decreasing in the dot product
// and non-increasing in each norm, so with the same envelope extremes:
//
//	<i1,i2> / (|u1| |u2|)  <=  cos(x,y)  <=  min(1, <u1,u2> / (|i1| |i2|))
//
// with the upper bound clipped to 1 when an intersection norm is 0.
type Cosine struct{}

// Name implements TextSim.
func (Cosine) Name() string { return "cosine" }

// Exact implements TextSim.
//
//rstknn:hotpath exact similarity inside the accept/reject loop
func (Cosine) Exact(x, y Vector) float64 {
	s := x.Dot(y)
	if s <= 0 {
		return 0 // skips the two square roots on disjoint documents
	}
	d := x.Norm() * y.Norm()
	_, hi := cosineCombine(s, 0, d, d)
	return hi
}

// Bounds implements TextSim.
//
//rstknn:hotpath envelope bounds inside the branch-and-bound inner loop
func (m Cosine) Bounds(e1, e2 Envelope) (lo, hi float64) {
	sMax, sMin := envelopeDots(&e1, &e2)
	return m.Combine(sMax, sMin, &e1, &e2)
}

// Combine implements TextSim.
//
//rstknn:hotpath one call per bound and exact evaluation
func (Cosine) Combine(sMax, sMin float64, e1, e2 *Envelope) (lo, hi float64) {
	if sMax <= 0 {
		return 0, 0
	}
	var dMax float64 // only the lower bound reads the union norms
	if sMin > 0 {
		dMax = e1.Uni.Norm() * e2.Uni.Norm()
	}
	return cosineCombine(sMax, sMin, e1.Int.Norm()*e2.Int.Norm(), dMax)
}

// cosineCombine is cosine's combine step over the norm products of the
// two intersection vectors (dMin) and the two union vectors (dMax). For
// two single documents both are |x||y| and hi is cos(x, y), or 1 when
// the product underflows to 0.
//
//rstknn:hotpath one call per bound and exact evaluation
func cosineCombine(sMax, sMin, dMin, dMax float64) (lo, hi float64) {
	if sMax <= 0 {
		return 0, 0
	}
	if sMin > 0 && dMax > 0 {
		lo = math.Min(1, sMin/dMax)
	}
	if dMin > 0 {
		hi = math.Min(1, sMax/dMin)
	} else {
		hi = 1
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// ByName returns the TextSim registered under name, or nil when unknown.
// Recognized names: "ej", "cosine".
func ByName(name string) TextSim {
	switch name {
	case "ej":
		return EJ{}
	case "cosine":
		return Cosine{}
	default:
		return nil
	}
}
