// Package core implements the query processing contribution of the
// RSTkNN paper (Lu, Lu, Cong — SIGMOD 2011): the branch-and-bound reverse
// spatial-textual kNN search over IUR-trees/CIUR-trees, driven by
// per-entry contribution lists that bound the similarity of every object's
// k-th nearest neighbor, plus the spatial-textual top-k search used by the
// precomputation baseline and the bichromatic extension.
package core

import (
	"math"

	"rstknn/internal/geom"
	"rstknn/internal/iurtree"
	"rstknn/internal/vector"
)

// Query is a query object: a location and a document vector. In the
// monochromatic RSTkNN problem the query is an object of the same kind as
// the data set (typically a new, not-yet-indexed object).
type Query struct {
	Loc geom.Point
	Doc vector.Vector
}

// boundsPad is the absolute slack added to node-level (non-exact)
// similarity bounds. The bounds are mathematically valid in real
// arithmetic; the pad absorbs float64 rounding so a bound can never be
// tighter than the exact similarity it must dominate. Exact object-object
// similarities are never padded, so accept/reject decisions agree
// bit-for-bit with the exhaustive baseline.
const boundsPad = 1e-12

// Scorer evaluates the combined spatial-textual similarity
//
//	SimST(a, b) = alpha * (1 - dist(a,b)/maxD) + (1-alpha) * SimT(a.doc, b.doc)
//
// and its envelope bounds. A Scorer is bound to one tree's normalization
// distance maxD.
type Scorer struct {
	Alpha float64
	MaxD  float64
	Sim   vector.TextSim

	// ExactCount is incremented for every exact similarity evaluation and
	// BoundCount for every entry-level bound evaluation; the experiment
	// harness reports both.
	ExactCount int64
	BoundCount int64
}

// NewScorer returns a scorer for the given tree parameters. A nil sim
// defaults to Extended Jaccard.
func NewScorer(alpha, maxD float64, sim vector.TextSim) *Scorer {
	if sim == nil {
		sim = vector.EJ{}
	}
	if maxD <= 0 {
		maxD = 1
	}
	return &Scorer{Alpha: alpha, MaxD: maxD, Sim: sim}
}

// Exact returns SimST between two concrete objects. It is a single call,
// within the inlining budget, so an exhaustive scan (baseline.Naive,
// KthSimilarities) pays one call per object pair besides the measure's.
func (s *Scorer) Exact(aLoc geom.Point, aDoc vector.Vector, bLoc geom.Point, bDoc vector.Vector) float64 {
	return s.exactDocs(aLoc, aDoc, bLoc, bDoc)
}

// exactDocs is Exact's body: the spatial and the textual similarity of
// one pair in one frame.
//
//rstknn:hotpath one call per exact object-object similarity of a scan
func (s *Scorer) exactDocs(aLoc geom.Point, aDoc vector.Vector, bLoc geom.Point, bDoc vector.Vector) float64 {
	return s.blend(1-aLoc.Dist(bLoc)/s.MaxD, s.Sim.Exact(aDoc, bDoc))
}

// exactWith returns SimST between two concrete objects given their
// textual similarity simT.
//
//rstknn:hotpath one call per exact object-object similarity
func (s *Scorer) exactWith(aLoc, bLoc geom.Point, simT float64) float64 {
	return s.blend(1-aLoc.Dist(bLoc)/s.MaxD, simT)
}

// blend counts one exact evaluation and weighs its spatial and textual
// similarity into SimST.
func (s *Scorer) blend(spatial, simT float64) float64 {
	s.ExactCount++
	return s.Alpha*spatial + (1-s.Alpha)*simT
}

// ExactEntryQuery returns SimST between an object entry and the query.
func (s *Scorer) ExactEntryQuery(e *iurtree.Entry, q *Query) float64 {
	return s.Exact(e.Loc(), e.Doc(), q.Loc, q.Doc)
}

// interval is a [lo, hi] similarity interval.
type interval struct {
	lo, hi float64
}

// side is one side of a bound computation: a spatial extent, a textual
// envelope, and whether the side is a single concrete object (making
// exact similarity available when the other side is concrete too).
type side struct {
	rect  geom.Rect
	env   *vector.Envelope
	exact bool
}

// sideOf builds the bound side of a whole entry.
func sideOf(e *iurtree.Entry) side {
	return side{rect: e.Rect, env: &e.Env, exact: e.IsObject()}
}

// queryBounds returns bounds of SimST(o, q) over every object o
// represented by side a. For concrete objects the interval collapses to
// the exact value.
func (s *Scorer) queryBounds(a side, q *Query) interval {
	if a.exact {
		v := s.Exact(a.rect.Min, a.env.Int, q.Loc, q.Doc)
		return interval{v, v}
	}
	s.BoundCount++
	qr := q.Loc.Rect()
	maxS := 1 - a.rect.MinDist(qr)/s.MaxD
	minS := 1 - a.rect.MaxDist(qr)/s.MaxD
	loT, hiT := s.Sim.Bounds(*a.env, vector.Exact(q.Doc))
	return interval{
		lo: s.Alpha*minS + (1-s.Alpha)*loT - boundsPad,
		hi: s.Alpha*maxS + (1-s.Alpha)*hiT + boundsPad,
	}
}

// part is one contribution: `count` objects whose similarity to every
// object of the candidate lies within [lo, hi].
type part struct {
	lo, hi float64
	count  int32
}

// entryBounds returns the contribution parts of contributor x with
// respect to candidate side a: bounds of SimST(o, y) valid for every
// object o covered by a and every object y below x. For a clustered
// contributor the textual bounds are computed per cluster (the CIUR-tree
// improvement); the spatial bounds always come from the MBRs.
//
// When both sides are concrete objects the single part is the exact
// similarity (unpadded).
func (s *Scorer) entryBounds(a side, x *iurtree.Entry) []part {
	sc := newScratch()
	sc.kern.Load(a.env.Uni)
	return s.entryBoundsInto(sc, a, x)
}

// entryBoundsInto is the pass form of entryBounds. The caller has
// scattered a's union vector into sc.kern (see vector.Scatter), so every
// Uni·Uni product, and the object-object dot, is a gather over x's terms
// alone; a kernel that holds no side, or another one, panics rather
// than yield unsound bounds. The part slice is carved from sc's arena,
// so the steady-state scoring path performs no allocation.
//
//rstknn:hotpath one call per (candidate, contributor) bound evaluation
func (s *Scorer) entryBoundsInto(sc *scratch, a side, x *iurtree.Entry) []part {
	if !sc.kern.Holds(a.env.Uni) {
		panic("core: bound pass without its side scattered")
	}
	if a.exact && x.IsObject() {
		// Both sides are single documents: the upper bound is the
		// similarity itself (see vector.TextSim).
		_, simT := s.Sim.Combine(sc.kern.Dot(x.Doc()), 0, a.env, &x.Env)
		v := s.exactWith(a.rect.Min, x.Loc(), simT)
		return append(allocParts(sc, 1), part{lo: v, hi: v, count: 1})
	}
	s.BoundCount++
	maxS := 1 - a.rect.MinDist(x.Rect)/s.MaxD
	minS := 1 - a.rect.MaxDist(x.Rect)/s.MaxD
	if len(x.Clusters) > 1 {
		parts := allocParts(sc, len(x.Clusters))
		for i := range x.Clusters {
			cs := &x.Clusters[i]
			loT, hiT := s.textBounds(sc.kern.Dot(cs.Env.Uni), a.env, &cs.Env)
			parts = append(parts, part{
				lo:    s.Alpha*minS + (1-s.Alpha)*loT - boundsPad,
				hi:    s.Alpha*maxS + (1-s.Alpha)*hiT + boundsPad,
				count: cs.Count,
			})
		}
		return parts
	}
	loT, hiT := s.textBounds(sc.kern.Dot(x.Env.Uni), a.env, &x.Env)
	return append(allocParts(sc, 1), part{
		lo:    s.Alpha*minS + (1-s.Alpha)*loT - boundsPad,
		hi:    s.Alpha*maxS + (1-s.Alpha)*hiT + boundsPad,
		count: x.Count,
	})
}

// textBounds bounds the textual similarity between the members of a and
// x from their gathered union product sMax, computing the intersection
// product only when sMax leaves the bounds open.
//
//rstknn:hotpath one call per contributor or cluster bound
func (s *Scorer) textBounds(sMax float64, a, x *vector.Envelope) (lo, hi float64) {
	var sMin float64
	if sMax > 0 {
		sMin = a.Int.Dot(x.Int)
	}
	return s.Sim.Combine(sMax, sMin, a, x)
}

// selfParts returns the contribution of a candidate's own subtree to each
// of the candidate's objects. For a whole-node candidate (cluster < 0)
// every object has entry.Count-1 co-members bounded by the node envelope
// paired with itself. For a cluster-scoped candidate the within-cluster
// co-members are bounded by the cluster envelope (tight) and every other
// cluster contributes its own envelope pair — the candidate-side
// per-cluster bounding that gives the CIUR-tree its pruning power.
// Spatial bounds use MinDist 0 and MaxDist = the node MBR diagonal.
func (s *Scorer) selfParts(e *iurtree.Entry, clusterID int32, env vector.Envelope, count int32) []part {
	return s.selfPartsInto(nil, e, clusterID, env, count)
}

// selfPartsInto is the allocation-free form of selfParts (see
// entryBoundsInto).
//
//rstknn:hotpath one call per candidate expansion and rebinding
func (s *Scorer) selfPartsInto(sc *scratch, e *iurtree.Entry, clusterID int32, env vector.Envelope, count int32) []part {
	if e.Count <= 1 {
		return nil
	}
	minS := 1 - e.Rect.Diagonal()/s.MaxD
	if clusterID < 0 || len(e.Clusters) == 0 {
		p := s.selfPart(env, e.Env, minS, e.Count-1)
		if p.count <= 0 {
			return nil
		}
		return append(allocParts(sc, 1), p)
	}
	parts := allocParts(sc, len(e.Clusters))
	for i := range e.Clusters {
		cs := &e.Clusters[i]
		n := cs.Count
		if cs.Cluster == clusterID {
			n-- // an object is not its own neighbor
		}
		if n <= 0 {
			continue
		}
		parts = append(parts, s.selfPart(env, cs.Env, minS, n))
	}
	return parts
}

// selfPart bounds one envelope pairing of a candidate's own subtree:
// spatial bounds [minS, 1] combined with the textual envelope bounds of
// the candidate-side envelope against one co-member envelope.
func (s *Scorer) selfPart(env, other vector.Envelope, minS float64, n int32) part {
	s.BoundCount++
	loT, hiT := s.Sim.Bounds(env, other)
	return part{
		lo:    s.Alpha*minS + (1-s.Alpha)*loT - boundsPad,
		hi:    s.Alpha*1 + (1-s.Alpha)*hiT + boundsPad,
		count: n,
	}
}

// negInf is the similarity of a non-existent neighbor: an object with
// fewer than k neighbors has k-th NN similarity -Inf, so the query always
// ranks within its top-k.
var negInf = math.Inf(-1)
