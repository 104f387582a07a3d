package iurtree

import (
	"math/rand"
	"testing"

	"rstknn/internal/geom"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// randomOp applies one random insert or delete, mirroring it in live,
// and returns the successor snapshot plus a short label for failure
// messages.
func randomOp(t *testing.T, rng *rand.Rand, tr *Snapshot, live map[int32]Object, next *int32, pInsert float64) (*Snapshot, string) {
	t.Helper()
	if len(live) == 0 || rng.Float64() < pInsert {
		o := Object{
			ID:  *next,
			Loc: geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			Doc: vector.New(map[vector.TermID]float64{vector.TermID(rng.Intn(25)): 1 + rng.Float64()}),
		}
		*next++
		nt, _, err := tr.Insert(o, nil)
		if err != nil {
			t.Fatalf("Insert(%d): %v", o.ID, err)
		}
		live[o.ID] = o
		return nt, "insert"
	}
	for _, o := range live {
		nt, _, ok, err := tr.Delete(o.ID, o.Loc, nil)
		if err != nil {
			t.Fatalf("Delete(%d): %v", o.ID, err)
		}
		if !ok {
			t.Fatalf("Delete(%d): live object not found", o.ID)
		}
		delete(live, o.ID)
		return nt, "delete"
	}
	return tr, "noop"
}

// TestInvariantsHoldAfterEveryOp runs a long randomized insert/delete
// workload and verifies the full set of structural invariants after
// every single operation, so the first op that corrupts the tree is
// identified exactly. The delete-heavy phase drives underflow, node
// removal, and root-chain collapse; the drain empties the tree entirely
// before building it back up.
func TestInvariantsHoldAfterEveryOp(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	tr := buildIUR(t, nil, false)
	live := map[int32]Object{}
	next := int32(0)

	phases := []struct {
		name    string
		ops     int
		pInsert float64
	}{
		{"grow", 400, 0.85},
		{"churn", 300, 0.50},
		{"shrink", 300, 0.15},
		{"regrow", 200, 0.90},
	}
	step := 0
	for _, ph := range phases {
		for i := 0; i < ph.ops; i++ {
			var op string
			tr, op = randomOp(t, rng, tr, live, &next, ph.pInsert)
			if tr.Len() != len(live) {
				t.Fatalf("%s step %d (%s): Len = %d, want %d", ph.name, step, op, tr.Len(), len(live))
			}
			if err := tr.CheckInvariants(nil); err != nil {
				t.Fatalf("%s step %d (%s, size %d): %v", ph.name, step, op, tr.Len(), err)
			}
			step++
		}
	}

	// Drain to empty: exercises deletion underflow all the way down to
	// root collapse and the empty-tree representation.
	for id, o := range live {
		nt, _, ok, err := tr.Delete(o.ID, o.Loc, nil)
		if err != nil || !ok {
			t.Fatalf("drain Delete(%d): ok=%v err=%v", id, ok, err)
		}
		tr = nt
		delete(live, id)
		if err := tr.CheckInvariants(nil); err != nil {
			t.Fatalf("drain at size %d: %v", tr.Len(), err)
		}
	}
	// A drained tree keeps an empty root leaf (height 1) ready for
	// reinsertion.
	if tr.Len() != 0 || tr.Height() > 1 {
		t.Fatalf("after drain: Len=%d Height=%d", tr.Len(), tr.Height())
	}

	// The tree must be fully usable after the drain.
	for i := 0; i < 50; i++ {
		tr, _ = randomOp(t, rng, tr, live, &next, 1.0)
		if err := tr.CheckInvariants(nil); err != nil {
			t.Fatalf("rebuild at size %d: %v", tr.Len(), err)
		}
	}
	if tr.Len() != 50 {
		t.Fatalf("rebuild: Len = %d", tr.Len())
	}
}

// TestCheckInvariantsDetectsCorruption makes sure the checker is not
// vacuous: corrupting a persisted summary must produce an error.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tr := buildIUR(t, randObjects(rng, 80, 15), false)
	if err := tr.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
	tr.size++ // now rootEntry.Count != size
	if err := tr.CheckInvariants(nil); err == nil {
		t.Fatal("checker accepted a tree whose root count disagrees with its size")
	}
	tr.size--

	tr.rootEntry.Count++ // children no longer sum to the root count
	if err := tr.CheckInvariants(nil); err == nil {
		t.Fatal("checker accepted a root count that children do not sum to")
	}
	tr.rootEntry.Count--

	h := tr.height
	tr.height++ // every leaf is now at the wrong depth
	if err := tr.CheckInvariants(nil); err == nil {
		t.Fatal("checker accepted leaves at the wrong depth")
	}
	tr.height = h
	if err := tr.CheckInvariants(nil); err != nil {
		t.Fatalf("restored tree no longer passes: %v", err)
	}
}

// TestTrackedTraversalsAttributeIO verifies the Walk and CheckInvariants
// reads are charged to the supplied tracker rather than dropped on the
// floor.
func TestTrackedTraversalsAttributeIO(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	tr := buildIUR(t, randObjects(rng, 120, 15), false)

	var walkTr storage.Tracker
	if err := tr.Walk(&walkTr, func(n *Node, depth int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if walkTr.Reads()+walkTr.CacheHits() == 0 {
		t.Error("Walk charged no I/O to the tracker")
	}

	var checkTr storage.Tracker
	if err := tr.CheckInvariants(&checkTr); err != nil {
		t.Fatal(err)
	}
	if checkTr.Reads()+checkTr.CacheHits() == 0 {
		t.Error("CheckInvariants charged no I/O to the tracker")
	}
}
