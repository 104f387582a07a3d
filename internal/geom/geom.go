// Package geom provides the planar geometric primitives used throughout the
// RSTkNN library: points, axis-aligned rectangles (MBRs), and the
// minimum/maximum distance functions between them that drive the spatial
// part of every similarity bound.
//
// All coordinates are float64. Rectangles are closed: a point on the
// boundary is contained. The zero Rect is the empty rectangle (see
// EmptyRect); it is the identity for Union and contains nothing.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return dist(p.X-q.X, p.Y-q.Y)
}

// Rect returns the degenerate rectangle covering exactly p.
func (p Point) Rect() Rect {
	return Rect{Min: p, Max: p}
}

func (p Point) String() string {
	return fmt.Sprintf("(%g, %g)", p.X, p.Y)
}

// Rect is an axis-aligned rectangle (minimum bounding rectangle). Min must
// be coordinate-wise <= Max for a non-empty rectangle.
type Rect struct {
	Min, Max Point
}

// EmptyRect returns the canonical empty rectangle: Min at +inf, Max at
// -inf, so that Union with any rectangle yields the other rectangle.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{
		Min: Point{inf, inf},
		Max: Point{-inf, -inf},
	}
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool {
	return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y
}

// Valid reports whether r is a well-formed (possibly degenerate) rectangle
// with finite coordinates.
func (r Rect) Valid() bool {
	return !r.IsEmpty() &&
		!math.IsInf(r.Min.X, 0) && !math.IsInf(r.Min.Y, 0) &&
		!math.IsInf(r.Max.X, 0) && !math.IsInf(r.Max.Y, 0) &&
		!math.IsNaN(r.Min.X) && !math.IsNaN(r.Min.Y) &&
		!math.IsNaN(r.Max.X) && !math.IsNaN(r.Max.Y)
}

// Contains reports whether p lies in r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s is entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return r.Contains(s.Min) && r.Contains(s.Max)
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Extend grows r in place to cover s and returns the result.
func (r Rect) Extend(p Point) Rect {
	return r.Union(p.Rect())
}

// Area returns the area of r (0 for degenerate or empty rectangles).
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.Max.X - r.Min.X) * (r.Max.Y - r.Min.Y)
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Diagonal returns the length of r's diagonal: the maximum distance between
// any two points inside r.
func (r Rect) Diagonal() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Min.Dist(r.Max)
}

// Enlargement returns the increase in area needed for r to cover s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// MinDist returns the minimum Euclidean distance between any point of r and
// any point of s. Overlapping rectangles have distance 0. This is a lower
// bound of the distance between any member point of r and any member point
// of s, used for upper-bounding spatial similarity.
func (r Rect) MinDist(s Rect) float64 {
	dx := axisGap(r.Min.X, r.Max.X, s.Min.X, s.Max.X)
	dy := axisGap(r.Min.Y, r.Max.Y, s.Min.Y, s.Max.Y)
	return dist(dx, dy)
}

// MaxDist returns the maximum Euclidean distance between any point of r and
// any point of s: the distance between the farthest pair of corners. It is
// an upper bound of the distance between any member point of r and any
// member point of s, used for lower-bounding spatial similarity. MaxDist of
// a rectangle with itself is its diagonal.
func (r Rect) MaxDist(s Rect) float64 {
	dx := axisSpan(r.Min.X, r.Max.X, s.Min.X, s.Max.X)
	dy := axisSpan(r.Min.Y, r.Max.Y, s.Min.Y, s.Max.Y)
	return dist(dx, dy)
}

func (r Rect) String() string {
	return fmt.Sprintf("[%s - %s]", r.Min, r.Max)
}

// minSquare is the smallest squared length dist takes the square root
// of. Below it a square may have been rounded to a subnormal and lost
// bits the root would expose.
const minSquare = 0x1p-1000

// dist returns the Euclidean length of (dx, dy) as the square root of
// the squared sum: three floating-point operations and one square-root
// instruction, where math.Hypot is an assembly call that divides and
// never inlines. It stays within 2 ulp of math.Hypot
// (FuzzDistMatchesHypot). Every step is a correctly rounded operation,
// so over that range the length never shrinks when a leg grows, which
// keeps MinDist and MaxDist monotone in the rectangles. A sum that
// overflows, falls below minSquare or is NaN goes to math.Hypot, whose
// scaling keeps a representable length finite and a nonzero one
// nonzero: with alpha 0 a +Inf distance would turn a spatial
// similarity weighted by 0 into NaN.
func dist(dx, dy float64) float64 {
	if s := dx*dx + dy*dy; s >= minSquare && s <= math.MaxFloat64 || dx == 0 && dy == 0 {
		return math.Sqrt(s)
	}
	return math.Hypot(dx, dy)
}

// axisGap returns the separation between intervals [a1,a2] and [b1,b2] on
// one axis, or 0 when they overlap.
func axisGap(a1, a2, b1, b2 float64) float64 {
	switch {
	case b1 > a2:
		return b1 - a2
	case a1 > b2:
		return a1 - b2
	default:
		return 0
	}
}

// axisSpan returns the largest distance between a point of [a1,a2] and a
// point of [b1,b2] on one axis.
func axisSpan(a1, a2, b1, b2 float64) float64 {
	return math.Max(math.Abs(a2-b1), math.Abs(b2-a1))
}
