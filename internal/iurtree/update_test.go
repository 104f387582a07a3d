package iurtree

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"rstknn/internal/cluster"
	"rstknn/internal/geom"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// insertAll applies a sequence of COW inserts, rebinding the snapshot
// and collecting the retired node IDs.
func insertAll(t *testing.T, tr *Snapshot, objs []Object) (*Snapshot, []storage.NodeID) {
	t.Helper()
	var retired []storage.NodeID
	for _, o := range objs {
		next, rets, err := tr.Insert(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr = next
		retired = append(retired, rets...)
	}
	return tr, retired
}

func TestInsertIntoSealedTree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	objs := randObjects(rng, 300, 25)
	tr := buildIUR(t, objs[:150], false)
	tr, _ = insertAll(t, tr, objs[150:])
	if tr.Len() != 300 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
	// Every object reachable via Walk.
	seen := map[int32]bool{}
	if err := tr.Walk(nil, func(n *Node, depth int) error {
		if n.Leaf {
			for _, e := range n.Entries {
				seen[e.ObjID] = true
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 300 {
		t.Errorf("walk found %d objects", len(seen))
	}
}

func TestInsertLeavesReceiverSnapshotIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	objs := randObjects(rng, 80, 15)
	before := buildIUR(t, objs[:60], false)
	after, retired, err := before.Insert(objs[60], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(retired) == 0 {
		t.Fatal("insert retired no nodes")
	}
	// The receiver still describes the pre-insert dataset and remains
	// fully traversable (no retired node has been freed yet).
	if before.Len() != 60 || after.Len() != 61 {
		t.Fatalf("Len: before=%d after=%d", before.Len(), after.Len())
	}
	if err := before.CheckInvariants(nil); err != nil {
		t.Fatalf("receiver snapshot broken after COW insert: %v", err)
	}
	if err := after.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	if err := before.Walk(nil, func(n *Node, depth int) error {
		if n.Leaf {
			for _, e := range n.Entries {
				seen[e.ObjID] = true
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen[objs[60].ID] {
		t.Error("old snapshot sees the new object")
	}
	if len(seen) != 60 {
		t.Errorf("old snapshot walk found %d objects, want 60", len(seen))
	}
}

func TestUpdateChargesWriteIO(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	objs := randObjects(rng, 100, 15)
	tr := buildIUR(t, objs[:99], false)
	var tracker storage.Tracker
	next, retired, err := tr.Insert(objs[99], &tracker)
	if err != nil {
		t.Fatal(err)
	}
	if tracker.Writes() == 0 || tracker.PagesWritten() < tracker.Writes() {
		t.Errorf("insert charged writes=%d pages=%d, want at least one write and a page per write",
			tracker.Writes(), tracker.PagesWritten())
	}
	// Path copying supersedes at least the root-to-leaf path and writes
	// at least one fresh node per superseded node (more on splits).
	if len(retired) == 0 {
		t.Error("insert retired no nodes")
	}
	if int(tracker.Writes()) < len(retired) {
		t.Errorf("writes=%d < retired=%d", tracker.Writes(), len(retired))
	}
	tracker.Reset()
	_, retired, ok, err := next.Delete(objs[0].ID, objs[0].Loc, &tracker)
	if err != nil || !ok {
		t.Fatalf("Delete: ok=%v err=%v", ok, err)
	}
	if tracker.Writes() == 0 || tracker.PagesWritten() < tracker.Writes() {
		t.Errorf("delete charged writes=%d pages=%d, want at least one write and a page per write",
			tracker.Writes(), tracker.PagesWritten())
	}
	if len(retired) == 0 {
		t.Error("delete retired no nodes")
	}
	if tracker.Reads() == 0 {
		t.Error("delete charged no read I/O for its descent")
	}
}

func TestInsertGrowsTreeAndSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tr := buildIUR(t, randObjects(rng, 5, 10), false)
	h0 := tr.Height()
	// Enough inserts to force at least one root split.
	for i := 0; i < 400; i++ {
		o := Object{
			ID:  int32(1000 + i),
			Loc: geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			Doc: vector.New(map[vector.TermID]float64{vector.TermID(i % 20): 1}),
		}
		next, _, err := tr.Insert(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr = next
	}
	if tr.Height() <= h0 {
		t.Errorf("height did not grow: %d -> %d", h0, tr.Height())
	}
	if err := tr.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
	// Insert far outside the dataspace: maxD must grow.
	before := tr.MaxD()
	next, _, err := tr.Insert(Object{ID: 9999, Loc: geom.Point{X: 5000, Y: 5000},
		Doc: vector.New(map[vector.TermID]float64{1: 1})}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if next.MaxD() <= before {
		t.Errorf("maxD did not grow: %g -> %g", before, next.MaxD())
	}
	// maxD is per snapshot: the receiver keeps its old normalizer.
	if tr.MaxD() != before {
		t.Errorf("receiver maxD changed: %g -> %g", before, tr.MaxD())
	}
}

func TestInsertIntoEmptyTree(t *testing.T) {
	tr := buildIUR(t, nil, false)
	o := Object{ID: 1, Loc: geom.Point{X: 2, Y: 3},
		Doc: vector.New(map[vector.TermID]float64{4: 1})}
	next, retired, err := tr.Insert(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(retired) != 1 {
		t.Errorf("retired %d nodes, want the old empty root", len(retired))
	}
	if next.Len() != 1 || next.RootEntry().Count != 1 {
		t.Fatalf("Len=%d rootCount=%d", next.Len(), next.RootEntry().Count)
	}
	if err := next.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteFromSealedTree(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	objs := randObjects(rng, 250, 20)
	tr := buildIUR(t, objs, false)
	// Delete a random half.
	perm := rng.Perm(len(objs))
	for _, i := range perm[:125] {
		next, _, ok, err := tr.Delete(objs[i].ID, objs[i].Loc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("Delete(%d) not found", objs[i].ID)
		}
		tr = next
	}
	if tr.Len() != 125 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
	// Deleted objects are gone; survivors remain.
	seen := map[int32]bool{}
	if err := tr.Walk(nil, func(n *Node, depth int) error {
		if n.Leaf {
			for _, e := range n.Entries {
				seen[e.ObjID] = true
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, i := range perm[:125] {
		if seen[objs[i].ID] {
			t.Fatalf("deleted object %d still present", objs[i].ID)
		}
	}
	if len(seen) != 125 {
		t.Errorf("walk found %d survivors", len(seen))
	}
}

func TestDeleteMissingAndEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	objs := randObjects(rng, 20, 10)
	tr := buildIUR(t, objs, false)
	if next, retired, ok, err := tr.Delete(999, geom.Point{X: 1, Y: 1}, nil); err != nil || ok {
		t.Errorf("deleting unknown object: ok=%v err=%v", ok, err)
	} else if next != tr || len(retired) != 0 {
		t.Error("not-found delete must return the receiver unchanged")
	}
	// Wrong location for a real ID.
	if _, _, ok, err := tr.Delete(objs[0].ID, geom.Point{X: -1e9, Y: -1e9}, nil); err != nil || ok {
		t.Errorf("deleting with wrong location: ok=%v err=%v", ok, err)
	}
	for _, o := range objs {
		next, _, ok, err := tr.Delete(o.ID, o.Loc, nil)
		if err != nil || !ok {
			t.Fatalf("Delete(%d): ok=%v err=%v", o.ID, ok, err)
		}
		tr = next
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d after deleting all", tr.Len())
	}
	if _, _, ok, _ := tr.Delete(objs[0].ID, objs[0].Loc, nil); ok {
		t.Error("delete from empty tree should find nothing")
	}
	// Tree remains usable.
	next, _, err := tr.Insert(objs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if next.Len() != 1 {
		t.Errorf("reinsert failed: Len = %d", next.Len())
	}
}

func TestUpdatesRejectedOnClusteredTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	objs := randObjects(rng, 50, 10)
	docs := make([]vector.Vector, len(objs))
	for i := range objs {
		docs[i] = objs[i].Doc
	}
	tr, err := Build(objs, Config{
		Store:      storage.NewStore(),
		Clustering: cluster.Run(docs, cluster.Config{K: 3, Seed: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Insert(objs[0], nil); err != ErrClustered {
		t.Errorf("Insert on CIUR: %v", err)
	}
	if _, _, _, err := tr.Delete(objs[0].ID, objs[0].Loc, nil); err != ErrClustered {
		t.Errorf("Delete on CIUR: %v", err)
	}
}

func TestInterleavedUpdatesKeepInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tr := buildIUR(t, nil, false)
	rec := storage.NewReclaimer(tr.Store())
	// The descents fill the bound cache, so a freed ID must leave it
	// before a later Put recycles it.
	rec.SetOnFree(tr.InvalidateNode)
	live := map[int32]Object{}
	next := int32(0)
	for step := 0; step < 1500; step++ {
		if len(live) == 0 || rng.Float64() < 0.65 {
			o := Object{
				ID:  next,
				Loc: geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
				Doc: vector.New(map[vector.TermID]float64{vector.TermID(rng.Intn(15)): 1 + rng.Float64()}),
			}
			next++
			nt, retired, err := tr.Insert(o, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr = nt
			rec.Retire(retired)
			live[o.ID] = o
		} else {
			for id, o := range live {
				nt, retired, ok, err := tr.Delete(o.ID, o.Loc, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("step %d: live object %d not found", step, id)
				}
				tr = nt
				rec.Retire(retired)
				delete(live, id)
				break
			}
		}
	}
	if tr.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(live))
	}
	if err := tr.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
	// With no pinned readers every retired node must have been freed
	// and live usage stays in step with the live object count: the
	// superseded-node leak is gone.
	if st := rec.Stats(); st.Pending != 0 || st.Freed == 0 {
		t.Errorf("reclaimer: pending=%d freed=%d", st.Pending, st.Freed)
	}
	store := tr.Store()
	if lb, tb := store.LiveBytes(), store.TotalBytes(); lb != tb {
		t.Errorf("LiveBytes=%d != TotalBytes=%d with all garbage freed", lb, tb)
	}
}

// TestSplitEntriesKeepsMinFill overflows a node whose entries all crowd
// one seed, so every least-enlargement choice goes right and the left
// side only reaches minimum fill by forced assignment. The seeds sit at
// the front, in the middle and at the end of the entry list: the forced
// phase must count only entries not yet assigned, wherever the seeds are.
func TestSplitEntriesKeepsMinFill(t *testing.T) {
	const n = maxFanout + 1
	for _, tc := range []struct {
		name   string
		s1, s2 int
	}{
		{"seeds at front", 0, 1},
		{"seeds in middle", n/2 - 1, n/2 + 1},
		{"seeds at end", n - 2, n - 1},
	} {
		entries := make([]Entry, 0, n)
		for i := 0; i < n; i++ {
			p := geom.Point{X: 99 + float64(i)/n, Y: 99 + float64(n-i)/n}
			switch i {
			case tc.s1:
				p = geom.Point{X: 0, Y: 0}
			case tc.s2:
				p = geom.Point{X: 101, Y: 101}
			}
			entries = append(entries, Entry{Rect: p.Rect(), ObjID: int32(i)})
		}
		left, right := splitEntries(entries)
		if len(left)+len(right) != n {
			t.Fatalf("%s: split %d+%d entries, want %d", tc.name, len(left), len(right), n)
		}
		if len(left) < minFill || len(right) < minFill {
			t.Errorf("%s: split %d/%d, want both sides >= %d", tc.name, len(left), len(right), minFill)
		}
	}
}

// TestUpdatesLeaveSharedDecodesIntact runs a scripted series of updates
// whose descents read the shared decodes concurrent readers hold, and
// checks that none of those decodes changed: each one the snapshots
// cached along the way re-encodes to the bytes it had when first read.
// The script covers a leaf split that grows the root, an insert below an
// internal root, removal from a leaf, and the deletes that empty a leaf,
// unlink it from the root and collapse the one-child root.
func TestUpdatesLeaveSharedDecodesIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	objs := randObjects(rng, maxFanout+2, 15)
	tr := buildIUR(t, objs[:maxFanout], false)
	first := map[*Node][]byte{} // every shared decode seen, by identity
	record := func() {
		t.Helper()
		if err := tr.Walk(nil, func(n *Node, _ int) error {
			if _, ok := first[n]; !ok {
				first[n] = encodeNode(n)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	insert := func(o Object) {
		t.Helper()
		record()
		next, _, err := tr.Insert(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr = next
	}
	remove := func(e Entry) {
		t.Helper()
		record()
		next, _, ok, err := tr.Delete(e.ObjID, e.Loc(), nil)
		if err != nil || !ok {
			t.Fatalf("Delete(%d): found %v, %v", e.ObjID, ok, err)
		}
		tr = next
	}

	if tr.Height() != 1 {
		t.Fatalf("a full leaf built to height %d, want 1", tr.Height())
	}
	insert(objs[maxFanout]) // the root leaf splits and a new root grows
	if tr.Height() != 2 {
		t.Fatalf("height %d after overflowing the root leaf, want 2", tr.Height())
	}
	insert(objs[maxFanout+1]) // the internal root's child entry is replaced
	root, err := tr.ReadSharedTracked(tr.RootID(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Entries) != 2 {
		t.Fatalf("root holds %d children, want 2", len(root.Entries))
	}
	leaf, err := tr.ReadSharedTracked(root.Entries[0].Child, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Removal from the leaf until it empties; the last delete unlinks
	// it and collapses the root onto the other leaf.
	victims := slices.Clone(leaf.Entries)
	for _, e := range victims {
		remove(e)
	}
	if tr.Height() != 1 || tr.Len() != maxFanout+2-len(victims) {
		t.Fatalf("after emptying a leaf: height %d, %d objects", tr.Height(), tr.Len())
	}
	if err := tr.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
	record()
	for n, enc := range first {
		if got := encodeNode(n); !bytes.Equal(got, enc) {
			t.Errorf("shared decode of node %d changed: %d entries now, %d bytes, was %d bytes",
				n.ID, len(n.Entries), len(got), len(enc))
		}
	}
}
