package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
)

// Rules 1 and 2 are decided by counting (ruleCounts) rather than by
// selecting kNNL and kNNU. These tests pin the equivalence with the
// selection form, the exactness of the incremental upkeep, and the
// max-upper refinement choice made without kNNU.

// rulesAgree checks that counting and selection decide both rules alike
// for the list against q.
func rulesAgree(cl *contributionList, q interval, k int) error {
	knnl, knnu := cl.knnBounds(nil, k)
	rc := cl.ruleCounts(q)
	if got, want := rc.prunes(k), q.hi < knnl; got != want {
		return fmt.Errorf("k=%d q=%v: Rule 1 by count = %v (nlo %d), by selection = %v (kNNL %g)",
			k, q, got, rc.nlo, want, knnl)
	}
	if got, want := rc.reports(k), q.lo >= knnu; got != want {
		return fmt.Errorf("k=%d q=%v: Rule 2 by count = %v (nhi %d), by selection = %v (kNNU %g)",
			k, q, got, rc.nhi, want, knnu)
	}
	return nil
}

// randomMultiset spreads n parts, drawn from a small value palette so
// that ties are common, over a self slice and a few contributors.
func randomMultiset(rng *rand.Rand, n int, palette []float64, maxCount int32) contributionList {
	var cl contributionList
	for i := 0; i < n; i++ {
		p := part{
			lo:    palette[rng.Intn(len(palette))],
			hi:    palette[rng.Intn(len(palette))],
			count: rng.Int31n(maxCount) + 1,
		}
		switch {
		case rng.Intn(4) == 0:
			p.count = 0 // empty parts count for neither rule
		case rng.Intn(8) == 0:
			p.count = math.MaxInt32
		}
		if rng.Intn(3) == 0 || len(cl.contributors) == 0 {
			if rng.Intn(2) == 0 {
				cl.self = append(cl.self, p)
				continue
			}
			cl.contributors = append(cl.contributors, contributor{})
		}
		c := &cl.contributors[len(cl.contributors)-1]
		c.parts = append(c.parts, p)
	}
	return cl
}

func TestRuleCountsMatchSelection(t *testing.T) {
	inf := math.Inf(1)
	palette := []float64{negInf, -0.5, 0, 0.25, 0.5, 0.75, 1, inf}
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 3000; trial++ {
		cl := randomMultiset(rng, rng.Intn(12), palette, []int32{1, 3, 1000}[rng.Intn(3)])
		var total int64
		for _, p := range cl.self {
			total += int64(max(p.count, 0))
		}
		for _, c := range cl.contributors {
			for _, p := range c.parts {
				total += int64(max(p.count, 0))
			}
		}
		// Thresholds on the palette itself tie exactly with part values.
		q := interval{lo: palette[rng.Intn(len(palette))], hi: palette[rng.Intn(len(palette))]}
		if rng.Intn(2) == 0 {
			q.lo, q.hi = rng.Float64(), rng.Float64()
		}
		for _, k := range []int{1, 2, 1 + rng.Intn(10), int(total), int(total) + 1, math.MaxInt32} {
			if k < 1 {
				continue
			}
			if err := rulesAgree(&cl, q, k); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

// FuzzRuleCountsMatchSelection drives rulesAgree from arbitrary bytes.
// Each 6-byte record is one part: a byte of two 3-bit palette indexes
// (lo, hi), an int32 count (any sign, up to math.MaxInt32), and a byte
// whose low bit puts the part in the self slice and whose next bit opens
// a new contributor. The palette holds the query bounds themselves, so
// ties at the threshold are as likely as any other value.
func FuzzRuleCountsMatchSelection(f *testing.F) {
	f.Add([]byte{0x12, 1, 0, 0, 0, 0, 0x34, 2, 0, 0, 0, 2}, uint32(2), 0.5, 0.75)
	f.Add([]byte{0x77, 0xff, 0xff, 0xff, 0x7f, 2, 0x00, 5, 0, 0, 0, 1}, uint32(0), math.Inf(-1), 0.0)
	f.Add([]byte{0x66, 3, 0, 0, 0, 0}, uint32(9), 0.25, 0.25)
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint32, qlo, qhi float64) {
		if math.IsNaN(qlo) || math.IsNaN(qhi) {
			return // a validated tree never yields NaN bounds
		}
		palette := [8]float64{negInf, 0, 0.25, 0.5, 0.75, math.Inf(1), qlo, qhi}
		var cl contributionList
		for ; len(data) >= 6; data = data[6:] {
			p := part{
				lo:    palette[data[0]&7],
				hi:    palette[data[0]>>3&7],
				count: int32(binary.LittleEndian.Uint32(data[1:])),
			}
			if data[5]&1 != 0 {
				cl.self = append(cl.self, p)
				continue
			}
			if data[5]&2 != 0 || len(cl.contributors) == 0 {
				cl.contributors = append(cl.contributors, contributor{})
			}
			c := &cl.contributors[len(cl.contributors)-1]
			c.parts = append(c.parts, p)
		}
		k := int(kRaw%math.MaxInt32) + 1
		if err := rulesAgree(&cl, interval{lo: qlo, hi: qhi}, k); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRuleCountsIncremental drives a random sequence of replace and
// reboundStale calls, the two ways decideGroup changes a list, and
// checks after each one that the incrementally kept counts equal a
// recount from scratch. Each trial draws its own rank cutoff k, so
// some reboundStale calls stop early, once the rules decide the list
// for k, and leave contributors stale.
func TestRuleCountsIncremental(t *testing.T) {
	s, entries := boundFixture(t)
	sc := getScratch()
	defer sc.release()
	w := &worker{scorer: *s, scratch: sc}
	rng := rand.New(rand.NewSource(71))
	early, passes := 0, 0
	// contrib returns a contributor for entries[j] bounded against a random
	// other side, as if inherited from an ancestor.
	contrib := func(j int, stale bool) contributor {
		from := sideOf(&entries[rng.Intn(len(entries))])
		return newContributor(&entries[j], boundsInto(s, sc, from, &entries[j]), stale)
	}
	for trial := 0; trial < 50; trial++ {
		gi := rng.Intn(len(entries))
		a := &entries[gi]
		gSide := sideOf(a)
		cl := contributionList{self: s.selfPartsInto(sc, a, -1, a.Env, a.Count)}
		for j := range entries {
			if j != gi {
				cl.contributors = append(cl.contributors, contrib(j, rng.Intn(2) == 0))
			}
		}
		// A threshold at an existing bound ties with it exactly.
		pick := cl.contributors[rng.Intn(len(cl.contributors))].parts
		q := interval{lo: rng.Float64(), hi: rng.Float64()}
		if len(pick) > 0 && rng.Intn(2) == 0 {
			q = interval{lo: pick[0].hi, hi: pick[0].lo}
		}
		k := 1 + rng.Intn(len(entries))
		rc := cl.ruleCounts(q)
		for op := 0; op < 40 && len(cl.contributors) > 0; op++ {
			if rng.Intn(3) == 0 {
				w.reboundStale(gSide, &cl, &rc, k)
				passes++
				for i := range cl.contributors {
					if cl.contributors[i].stale {
						early++
						break
					}
				}
			} else {
				var repl []contributor
				for n := rng.Intn(4); n > 0; n-- {
					repl = append(repl, contrib(rng.Intn(len(entries)), rng.Intn(2) == 0))
				}
				cl.replace(sc, rng.Intn(len(cl.contributors)), repl, &rc)
			}
			if want := cl.ruleCounts(q); rc != want {
				t.Fatalf("trial %d op %d: incremental counts (nlo %d, nhi %d), recount (nlo %d, nhi %d)",
					trial, op, rc.nlo, rc.nhi, want.nlo, want.nhi)
			}
			if err := rulesAgree(&cl, q, 1+rng.Intn(20)); err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
		}
		sc.parts.reset()
	}
	// Both kinds of pass must occur, or the random k tests only one.
	if early == 0 || early == passes {
		t.Fatalf("%d of %d reboundStale calls left contributors stale; want some but not all", early, passes)
	}
}

// refinableByMaxUpperKNNU is the max-upper choice as made with kNNU:
// rank the decision-relevant contributors (maxHi >= knnu) first, then by
// upper bound, then by subtree size, keeping the first index on full
// ties. refinableByMaxUpper must pick the same index without kNNU.
func refinableByMaxUpperKNNU(cl *contributionList, knnu float64) int {
	best := -1
	bestKey, bestTie := negInf, negInf
	bestRelevant := false
	for i := range cl.contributors {
		c := &cl.contributors[i]
		if !c.stale && c.entry.IsObject() {
			continue
		}
		hi := c.maxHi()
		relevant := hi >= knnu
		if bestRelevant && !relevant {
			continue
		}
		key, tie := hi, float64(c.entry.Count)
		if best == -1 || (relevant && !bestRelevant) ||
			key > bestKey || (key == bestKey && tie > bestTie) { //rstknn:allow floatcmp exact tie on the refinement key falls through to the secondary criterion
			best, bestKey, bestTie, bestRelevant = i, key, tie, relevant
		}
	}
	return best
}

func TestRefinableMaxUpperWithoutKNNU(t *testing.T) {
	inf := math.Inf(1)
	palette := []float64{negInf, 0.2, 0.5, 0.5, 0.8}
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 5000; trial++ {
		var cl contributionList
		for n := rng.Intn(10); n > 0; n-- {
			e := &iurtree.Entry{Child: 1, Count: int32(1 + rng.Intn(3))}
			if rng.Intn(3) == 0 {
				e = &iurtree.Entry{Child: storage.InvalidNode, Count: 1}
			}
			c := newContributor(e, nil, rng.Intn(2) == 0)
			for m := rng.Intn(3); m > 0; m-- {
				hi := palette[rng.Intn(len(palette))]
				// A zero-count part leaves maxHi at -Inf.
				c.parts = append(c.parts, part{lo: hi - 0.1, hi: hi, count: int32(rng.Intn(3))})
			}
			cl.contributors = append(cl.contributors, c)
		}
		_, knnu := cl.knnBounds(nil, 1+rng.Intn(6))
		want := refinableByMaxUpperKNNU(&cl, knnu)
		if got := cl.refinableByMaxUpper(); got != want {
			t.Fatalf("trial %d (kNNU %g): refinableByMaxUpper = %d, kNNU-based choice = %d", trial, knnu, got, want)
		}
		// Every contributor irrelevant, every one relevant, and thresholds
		// tied with the palette.
		for _, knnu := range append([]float64{inf, negInf}, palette...) {
			if got, want := cl.refinableByMaxUpper(), refinableByMaxUpperKNNU(&cl, knnu); got != want {
				t.Fatalf("trial %d (kNNU %g): refinableByMaxUpper = %d, kNNU-based choice = %d", trial, knnu, got, want)
			}
		}
	}
}
