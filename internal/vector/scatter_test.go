package vector

import (
	"math"
	"math/rand"
	"testing"
)

// vecOf builds a vector over the given terms with weights from rng.
func vecOf(rng *rand.Rand, terms ...TermID) Vector {
	m := make(map[TermID]float64, len(terms))
	for _, t := range terms {
		m[t] = 0.25 + rng.Float64()*3
	}
	return New(m)
}

// span returns n ascending terms starting at from with the given stride.
func span(from TermID, n int, stride TermID) []TermID {
	out := make([]TermID, n)
	for i := range out {
		out[i] = from + TermID(i)*stride
	}
	return out
}

// kernelPairs are the shapes the kernel must agree on, as (scattered,
// gathered) vector pairs, plus random pairs of every size ratio.
func kernelPairs() [][2]Vector {
	rng := rand.New(rand.NewSource(23))
	pairs := [][2]Vector{
		// Disjoint term ranges, both orders.
		{vecOf(rng, span(0, 10, 1)...), vecOf(rng, span(100, 10, 1)...)},
		{vecOf(rng, span(100, 10, 1)...), vecOf(rng, span(0, 10, 1)...)},
		// Interleaved but disjoint: the ranges overlap, no term matches.
		{vecOf(rng, span(0, 20, 2)...), vecOf(rng, span(1, 20, 2)...)},
		// Scattered side more than 8x shorter (the binary-search path),
		// and gathered side more than 8x shorter.
		{vecOf(rng, 3, 40, 77), vecOf(rng, span(0, 100, 1)...)},
		{vecOf(rng, span(0, 100, 1)...), vecOf(rng, 3, 40, 77)},
		// Exactly 8x: the gather path.
		{vecOf(rng, span(0, 4, 8)...), vecOf(rng, span(0, 32, 1)...)},
		// Gathered terms beyond the scattered buffer's length.
		{vecOf(rng, span(0, 10, 1)...), vecOf(rng, append(span(5, 10, 1), 5000, 9000)...)},
		// A term past the dense cap: the scattered side stays sparse.
		{vecOf(rng, 2, 9, maxScatterTerms+5), vecOf(rng, 2, 3, 9, maxScatterTerms+5)},
		// Empty vectors.
		{{}, vecOf(rng, 1, 2, 3)},
		{vecOf(rng, 1, 2, 3), {}},
		{{}, {}},
		// Identical vectors.
		{vecOf(rng, 4, 8, 15, 16, 23, 42), vecOf(rng, 4, 8, 15, 16, 23, 42)},
	}
	for i := 0; i < 300; i++ {
		// randomVec draws skewed terms, so the vocabulary is kept well
		// above the term count.
		na, nb := 1+rng.Intn(60), 1+rng.Intn(60)
		a := randomVec(rng, na, 8*na+rng.Intn(400))
		b := randomVec(rng, nb, 8*nb+rng.Intn(400))
		pairs = append(pairs, [2]Vector{a, b})
	}
	return pairs
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestScatterDotMatchesDot(t *testing.T) {
	var k Scatter
	for i, p := range kernelPairs() {
		k.Load(p[0])
		got, want := k.Dot(p[1]), p[0].Dot(p[1])
		k.Clear()
		if !sameBits(got, want) {
			t.Errorf("pair %d (%d x %d terms): kernel dot %v, Dot %v", i, p[0].Len(), p[1].Len(), got, want)
		}
	}
}

// TestKernelBoundsMatchBounds checks the bound path the scorer takes —
// the scattered side's union product from the kernel, combined by the
// measure — against Bounds, and the object-object path against Exact.
func TestKernelBoundsMatchBounds(t *testing.T) {
	pairs := kernelPairs()
	rng := rand.New(rand.NewSource(29))
	var k Scatter
	for _, sim := range []TextSim{EJ{}, Cosine{}} {
		for i := range pairs {
			x, y := pairs[i][0], pairs[i][1]
			// Exact: both sides single documents.
			ex, ey := Exact(x), Exact(y)
			k.Load(ex.Uni)
			dot := k.Dot(ey.Uni)
			k.Clear()
			_, hi := sim.Combine(dot, 0, &ex, &ey)
			if want := sim.Exact(x, y); !sameBits(hi, want) {
				t.Errorf("%s pair %d: kernel exact %v, Exact %v", sim.Name(), i, hi, want)
			}
			// Bounds: envelopes made from this pair and a random partner.
			z := pairs[rng.Intn(len(pairs))][rng.Intn(2)]
			e1, e2 := Merge(ex, Exact(z)), Merge(ey, Exact(z))
			k.Load(e1.Uni)
			sMax := k.Dot(e2.Uni)
			k.Clear()
			var sMin float64
			if sMax > 0 {
				sMin = e1.Int.Dot(e2.Int)
			}
			klo, khi := sim.Combine(sMax, sMin, &e1, &e2)
			wlo, whi := sim.Bounds(e1, e2)
			if !sameBits(klo, wlo) || !sameBits(khi, whi) {
				t.Errorf("%s pair %d: kernel bounds [%v, %v], Bounds [%v, %v]", sim.Name(), i, klo, khi, wlo, whi)
			}
		}
	}
}

// TestExactMatchesClosedForm pins Exact, now the combine step's upper
// bound over single-document envelopes, to the closed forms it
// replaced, bit for bit. (They part only where rounding would push EJ
// above 1, which Exact clips, or a norm product underflows to 0.)
func TestExactMatchesClosedForm(t *testing.T) {
	ej := func(x, y Vector) float64 {
		s := x.Dot(y)
		if s <= 0 {
			return 0
		}
		den := x.Norm2() + y.Norm2() - s
		if den <= 0 {
			return 1
		}
		return s / den
	}
	cos := func(x, y Vector) float64 {
		s := x.Dot(y)
		if s <= 0 {
			return 0
		}
		den := x.Norm() * y.Norm()
		if den <= 0 {
			return 0
		}
		return math.Min(1, s/den)
	}
	for i, p := range kernelPairs() {
		if got, want := (EJ{}).Exact(p[0], p[1]), ej(p[0], p[1]); !sameBits(got, want) {
			t.Errorf("pair %d: EJ.Exact %v, closed form %v", i, got, want)
		}
		if got, want := (Cosine{}).Exact(p[0], p[1]), cos(p[0], p[1]); !sameBits(got, want) {
			t.Errorf("pair %d: Cosine.Exact %v, closed form %v", i, got, want)
		}
	}
}

func TestScatterClearLeavesZeros(t *testing.T) {
	var k Scatter
	for _, p := range kernelPairs() {
		k.Load(p[0])
		k.Dot(p[1])
		k.Clear()
		for i, w := range k.w {
			if w != 0 {
				t.Fatalf("slot %d holds %v after Clear", i, w)
			}
		}
	}
}

func TestScatterWarmPassAllocFree(t *testing.T) {
	pairs := kernelPairs()
	var k Scatter
	var sink float64
	pass := func() {
		for i := range pairs {
			k.Load(pairs[i][0])
			sink += k.Dot(pairs[i][1])
			k.Clear()
		}
	}
	pass() // warm pass: the buffer grows to the largest term once
	if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
		t.Errorf("warm kernel pass allocates %v, want 0", allocs)
	}
	_ = sink
}

func TestScatterHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a, b := vecOf(rng, 1, 4, 9), vecOf(rng, 1, 4, 9)
	var k Scatter
	if k.Holds(a) || k.Holds(Vector{}) {
		t.Fatal("an unloaded Scatter holds a vector")
	}
	k.Load(a)
	if !k.Holds(a) {
		t.Error("Holds(loaded vector) = false")
	}
	if k.Holds(b) {
		t.Error("Holds(an equal-length vector loaded elsewhere) = true")
	}
	k.Clear()
	if k.Holds(a) {
		t.Error("Holds after Clear = true")
	}
	k.Load(Vector{})
	if !k.Holds(Vector{}) || k.Holds(a) {
		t.Error("a loaded empty vector must hold exactly the empty vectors")
	}
	k.Clear()
}

func TestScatterDotUnloadedPanics(t *testing.T) {
	var k Scatter
	k.Load(vecOf(rand.New(rand.NewSource(37)), 2, 3))
	k.Clear()
	defer func() {
		if recover() == nil {
			t.Error("Dot on a cleared Scatter did not panic")
		}
	}()
	k.Dot(Vector{})
}
