package vector

import (
	"math/rand"
	"testing"
)

// randomVec builds a vector with n skewed random terms from the vocab.
func randomVec(rng *rand.Rand, n, vocab int) Vector {
	m := make(map[TermID]float64, n)
	for len(m) < n {
		t := TermID(int(float64(vocab) * rng.Float64() * rng.Float64()))
		m[t] = 0.5 + rng.Float64()*2
	}
	return New(m)
}

// The scoring hot path must not allocate: Dot and the Exact/Bounds of
// both text similarities (EJ, Cosine) are called once per bound
// evaluation inside the branch-and-bound inner loop, so a single
// allocation per call dominates query cost. These tests pin the
// zero-allocation property so regressions fail loudly.

func TestDotAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := [][2]Vector{
		{randomVec(rng, 8, 50), randomVec(rng, 8, 50)},     // merge path
		{randomVec(rng, 3, 400), randomVec(rng, 200, 400)}, // asymmetric path
		{randomVec(rng, 200, 400), randomVec(rng, 3, 400)}, // asymmetric, swapped
		{Vector{}, randomVec(rng, 8, 50)},                  // empty operand
	}
	var sink float64
	for i, c := range cases {
		allocs := testing.AllocsPerRun(100, func() {
			sink += c[0].Dot(c[1])
		})
		if allocs != 0 {
			t.Errorf("case %d: Dot allocates %v per run, want 0", i, allocs)
		}
	}
	_ = sink
}

func TestEJExactAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randomVec(rng, 12, 60)
	y := randomVec(rng, 12, 60)
	var sink float64
	for _, sim := range []TextSim{EJ{}, Cosine{}} {
		allocs := testing.AllocsPerRun(100, func() {
			sink += sim.Exact(x, y)
		})
		if allocs != 0 {
			t.Errorf("%T.Exact allocates %v per run, want 0", sim, allocs)
		}
	}
	_ = sink
}

func TestEJBoundsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e1 := Merge(Exact(randomVec(rng, 10, 60)), Exact(randomVec(rng, 10, 60)))
	e2 := Merge(Exact(randomVec(rng, 10, 60)), Exact(randomVec(rng, 10, 60)))
	var sink float64
	for _, sim := range []TextSim{EJ{}, Cosine{}} {
		allocs := testing.AllocsPerRun(100, func() {
			lo, hi := sim.Bounds(e1, e2)
			sink += lo + hi
		})
		if allocs != 0 {
			t.Errorf("%T.Bounds allocates %v per run, want 0", sim, allocs)
		}
	}
	_ = sink
}
