package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestPointDist(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{-1, -1}, Point{2, 3}, 5},
		{Point{1.5, 2.5}, Point{1.5, 2.5}, 0},
	}
	for _, tc := range tests {
		if got := tc.p.Dist(tc.q); !almostEqual(got, tc.want) {
			t.Errorf("Dist(%v, %v) = %g, want %g", tc.p, tc.q, got, tc.want)
		}
	}
}

func TestDistSymmetric(t *testing.T) {
	// Bound the coordinates: quick generates magnitudes near MaxFloat64
	// where Dist legitimately overflows to +Inf.
	f := func(ax, ay, bx, by float64) bool {
		p := Point{math.Mod(ax, 1e6), math.Mod(ay, 1e6)}
		q := Point{math.Mod(bx, 1e6), math.Mod(by, 1e6)}
		return almostEqual(p.Dist(q), q.Dist(p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect is not empty")
	}
	if e.Area() != 0 || e.Diagonal() != 0 {
		t.Error("empty rect should have zero measures")
	}
	r := Rect{Point{1, 2}, Point{3, 4}}
	if got := e.Union(r); got != r {
		t.Errorf("empty.Union(r) = %v, want %v", got, r)
	}
	if got := r.Union(e); got != r {
		t.Errorf("r.Union(empty) = %v, want %v", got, r)
	}
	if e.Contains(Point{0, 0}) {
		t.Error("empty rect contains a point")
	}
	if !r.ContainsRect(e) {
		t.Error("every rect should contain the empty rect")
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{Point{0, 0}, Point{10, 5}}
	in := []Point{{0, 0}, {10, 5}, {5, 2.5}, {0, 5}, {10, 0}}
	out := []Point{{-0.001, 0}, {10.001, 5}, {5, 5.001}, {5, -0.001}}
	for _, p := range in {
		if !r.Contains(p) {
			t.Errorf("%v should contain %v", r, p)
		}
	}
	for _, p := range out {
		if r.Contains(p) {
			t.Errorf("%v should not contain %v", r, p)
		}
	}
}

func TestMinMaxDist(t *testing.T) {
	a := Rect{Point{0, 0}, Point{2, 2}}
	tests := []struct {
		name     string
		b        Rect
		min, max float64
	}{
		{"identical", a, 0, a.Diagonal()},
		{"overlap", Rect{Point{1, 1}, Point{3, 3}}, 0, math.Hypot(3, 3)},
		{"right gap", Rect{Point{5, 0}, Point{6, 2}}, 3, math.Hypot(6, 2)},
		{"diag gap", Rect{Point{5, 6}, Point{7, 8}}, math.Hypot(3, 4), math.Hypot(7, 8)},
		{"contained", Rect{Point{0.5, 0.5}, Point{1, 1}}, 0, math.Hypot(1.5, 1.5)},
	}
	for _, tc := range tests {
		if got := a.MinDist(tc.b); !almostEqual(got, tc.min) {
			t.Errorf("%s: MinDist = %g, want %g", tc.name, got, tc.min)
		}
		if got := a.MaxDist(tc.b); !almostEqual(got, tc.max) {
			t.Errorf("%s: MaxDist = %g, want %g", tc.name, got, tc.max)
		}
	}
}

func TestUnionProperties(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		a := Point{math.Mod(ax, 1e6), math.Mod(ay, 1e6)}.Rect().Extend(Point{math.Mod(bx, 1e6), math.Mod(by, 1e6)})
		b := Point{math.Mod(cx, 1e6), math.Mod(cy, 1e6)}.Rect().Extend(Point{math.Mod(dx, 1e6), math.Mod(dy, 1e6)})
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b) &&
			u.Area() >= a.Area() && u.Area() >= b.Area()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMinDistIsLowerBound verifies the core geometric guarantee used by the
// similarity bounds: for random rectangles and random points inside them,
// MinDist <= dist(p, q) <= MaxDist.
func TestMinDistIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randRect := func() Rect {
		x1, y1 := rng.Float64()*100-50, rng.Float64()*100-50
		x2, y2 := x1+rng.Float64()*20, y1+rng.Float64()*20
		return Rect{Point{x1, y1}, Point{x2, y2}}
	}
	randIn := func(r Rect) Point {
		return Point{
			r.Min.X + rng.Float64()*(r.Max.X-r.Min.X),
			r.Min.Y + rng.Float64()*(r.Max.Y-r.Min.Y),
		}
	}
	for i := 0; i < 2000; i++ {
		a, b := randRect(), randRect()
		p, q := randIn(a), randIn(b)
		d := p.Dist(q)
		if min := a.MinDist(b); d < min-1e-9 {
			t.Fatalf("iter %d: dist %g < MinDist %g for %v %v", i, d, min, a, b)
		}
		if max := a.MaxDist(b); d > max+1e-9 {
			t.Fatalf("iter %d: dist %g > MaxDist %g for %v %v", i, d, max, a, b)
		}
	}
}

func TestEnlargement(t *testing.T) {
	a := Rect{Point{0, 0}, Point{2, 2}}
	if got := a.Enlargement(Rect{Point{1, 1}, Point{2, 2}}); got != 0 {
		t.Errorf("enlargement for contained rect = %g, want 0", got)
	}
	if got := a.Enlargement(Rect{Point{0, 0}, Point{4, 2}}); !almostEqual(got, 4) {
		t.Errorf("enlargement = %g, want 4", got)
	}
}

func TestCenterAndDiagonal(t *testing.T) {
	r := Rect{Point{0, 0}, Point{4, 2}}
	if c := r.Center(); c != (Point{2, 1}) {
		t.Errorf("Center = %v", c)
	}
	if d := r.Diagonal(); !almostEqual(d, math.Hypot(4, 2)) {
		t.Errorf("Diagonal = %g", d)
	}
}

func TestValid(t *testing.T) {
	if !(Rect{Point{0, 0}, Point{1, 1}}).Valid() {
		t.Error("normal rect should be valid")
	}
	if (Rect{Point{1, 1}, Point{0, 0}}).Valid() {
		t.Error("inverted rect should be invalid")
	}
	if EmptyRect().Valid() {
		t.Error("empty rect should be invalid")
	}
	nan := math.NaN()
	if (Rect{Point{nan, 0}, Point{1, 1}}).Valid() {
		t.Error("NaN rect should be invalid")
	}
}

// FuzzDistMatchesHypot checks the square-root distance against
// math.Hypot. Whenever both legs are finite and math.Hypot's length is
// finite, the distance must be finite, within 2 ulp of math.Hypot, and
// zero only when p and q coincide; a length beyond math.MaxFloat64 must
// be +Inf, as math.Hypot gives. MinDist and MaxDist of the two points'
// degenerate rectangles take the same path and must agree bit for bit.
// The seed corpus holds ±1e300, subnormals, zeros, mixed signs and both
// sides of the squared-sum underflow and overflow limits.
func FuzzDistMatchesHypot(f *testing.F) {
	f.Fuzz(func(t *testing.T, px, py, qx, qy float64) {
		dx, dy := px-qx, py-qy
		if math.IsNaN(dx) || math.IsNaN(dy) || math.IsInf(dx, 0) || math.IsInf(dy, 0) {
			return // non-finite legs: no finite length to match
		}
		p, q := Point{px, py}, Point{qx, qy}
		got, want := p.Dist(q), math.Hypot(dx, dy)
		if math.IsInf(want, 1) {
			if got != want {
				t.Fatalf("Dist(%v, %v) = %g, want +Inf as math.Hypot", p, q, got)
			}
			return
		}
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("Dist(%v, %v) = %g, not finite; math.Hypot %g", p, q, got, want)
		}
		if u := ulpDiff(got, want); u > 2 {
			t.Fatalf("Dist(%v, %v) = %g, %d ulp from math.Hypot %g", p, q, got, u, want)
		}
		if (got == 0) != (dx == 0 && dy == 0) {
			t.Fatalf("Dist(%v, %v) = %g with legs (%g, %g)", p, q, got, dx, dy)
		}
		if r := p.Rect().MinDist(q.Rect()); r != got {
			t.Fatalf("MinDist of %v and %v = %g, Dist %g", p, q, r, got)
		}
		if r := p.Rect().MaxDist(q.Rect()); r != got {
			t.Fatalf("MaxDist of %v and %v = %g, Dist %g", p, q, r, got)
		}
	})
}

// ulpDiff returns the number of float64 values between two
// non-negative finite values.
func ulpDiff(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		return x - y
	}
	return y - x
}
