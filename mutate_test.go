package rstknn

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// noPinsAtCleanup fails the test if a reader of e still holds a pin
// when the test ends: every Read must release its pin, on error paths
// too.
func noPinsAtCleanup(t *testing.T, e *Engine) {
	t.Helper()
	t.Cleanup(func() {
		if pins := e.snap.Stats().Pins; pins != 0 {
			t.Errorf("%d pins still held at cleanup", pins)
		}
	})
}

// holdRead opens a Read of e's current state on a goroutine, like a
// long-running query, and keeps it open until release is called (at the
// latest when the test ends). It returns the state that Read sees.
func holdRead(t *testing.T, e *Engine) (st *engineState, release func()) {
	t.Helper()
	got := make(chan *engineState)
	done, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		_ = e.snap.Read(func(st *engineState) error {
			got <- st
			<-done
			return nil
		})
	}()
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
	t.Cleanup(release)
	return <-got, release
}

func queriesAgree(t *testing.T, e *Engine, rng *rand.Rand, trials int) {
	t.Helper()
	for i := 0; i < trials; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		text := menuTerms[rng.Intn(len(menuTerms))] + " " + menuTerms[rng.Intn(len(menuTerms))]
		k := 1 + rng.Intn(5)
		got, err := e.Query(x, y, text, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.NaiveQuery(x, y, text, k)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.IDs) != fmt.Sprint(want) {
			t.Fatalf("trial %d (k=%d): Query %v != NaiveQuery %v", i, k, got.IDs, want)
		}
	}
}

func TestInsertDeleteQueryMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	objs := genRestaurants(rng, 240)
	eng, err := Build(objs[:120], Options{})
	if err != nil {
		t.Fatal(err)
	}
	noPinsAtCleanup(t, eng)
	for _, o := range objs[120:] {
		st, err := eng.Insert(o)
		if err != nil {
			t.Fatal(err)
		}
		if st.Writes == 0 || st.PagesWritten == 0 {
			t.Fatalf("Insert(%d) reported no write I/O: %+v", o.ID, st)
		}
	}
	for i := 0; i < 240; i += 5 {
		found, st, err := eng.Delete(int32(i))
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("Delete(%d) found nothing", i)
		}
		if st.Retired == 0 {
			t.Fatalf("Delete(%d) retired no nodes: %+v", i, st)
		}
	}
	if eng.Len() != 240-48 {
		t.Fatalf("Len = %d", eng.Len())
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The tree and the object table must describe the same collection.
	queriesAgree(t, eng, rng, 8)

	// Deleting an unknown ID is a no-op, not an error.
	if found, _, err := eng.Delete(99999); err != nil || found {
		t.Fatalf("Delete(unknown): found=%v err=%v", found, err)
	}
	// Reinserting a deleted ID works; inserting a live one does not.
	if _, err := eng.Insert(objs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Insert(objs[0]); err == nil {
		t.Fatal("duplicate Insert must fail")
	}
}

func TestApplyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	objs := genRestaurants(rng, 150)
	eng, err := Build(objs[:100], Options{})
	if err != nil {
		t.Fatal(err)
	}
	noPinsAtCleanup(t, eng)

	// Duplicate IDs within the batch fail upfront.
	if _, err := eng.Apply(Batch{Insert: []Object{objs[100], objs[100]}}); err == nil {
		t.Fatal("duplicate insert IDs within a batch must fail")
	}
	// Colliding with a live object the batch does not delete fails.
	if _, err := eng.Apply(Batch{Insert: []Object{objs[0]}}); err == nil {
		t.Fatal("insert colliding with a live object must fail")
	}
	if eng.Len() != 100 {
		t.Fatalf("failed Apply changed the index: Len = %d", eng.Len())
	}

	// Delete-then-insert of the same ID in one batch replaces the object;
	// unknown delete IDs are skipped.
	replacement := Object{ID: objs[0].ID, X: 50, Y: 50, Text: "vegan salad"}
	st, err := eng.Apply(Batch{
		Insert: append([]Object{replacement}, objs[100:]...),
		Delete: []int32{objs[0].ID, 88888},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes == 0 || st.Retired == 0 {
		t.Fatalf("Apply reported no work: %+v", st)
	}
	if eng.Len() != 150 {
		t.Fatalf("Len = %d, want 150", eng.Len())
	}
	x, y, _, err := eng.ObjectByID(objs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if x != 50 || y != 50 {
		t.Fatalf("replacement not applied: at (%g, %g)", x, y)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	queriesAgree(t, eng, rng, 6)

	// The empty batch is a no-op.
	if _, err := eng.Apply(Batch{}); err != nil {
		t.Fatal(err)
	}
}

func TestMutationsRejectedOnClusteredEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	objs := genRestaurants(rng, 80)
	eng, err := Build(objs[:79], Options{Index: CIUR, Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	noPinsAtCleanup(t, eng)
	if _, err := eng.Insert(objs[79]); !errors.Is(err, ErrClustered) {
		t.Errorf("Insert on CIUR: %v", err)
	}
	if _, _, err := eng.Delete(objs[0].ID); !errors.Is(err, ErrClustered) {
		t.Errorf("Delete on CIUR: %v", err)
	}
	if _, err := eng.Apply(Batch{Delete: []int32{objs[0].ID}}); !errors.Is(err, ErrClustered) {
		t.Errorf("Apply on CIUR: %v", err)
	}
}

// TestPinnedSnapshotSurvivesDelete is the snapshot-isolation property
// test: a reader that pinned the index before a delete keeps seeing the
// deleted object — with bit-identical results — even after the write is
// published and reclamation has been attempted.
func TestPinnedSnapshotSurvivesDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	objs := genRestaurants(rng, 200)
	eng, err := Build(objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noPinsAtCleanup(t, eng)
	victim := objs[7]

	// Pin BEFORE the delete, like a long-running query would.
	st, release := holdRead(t, eng)
	doc := eng.vectorize(victim.Text)
	before, err := eng.queryVector(context.Background(), st, victim.X, victim.Y, doc, 3)
	if err != nil {
		t.Fatal(err)
	}
	contains := func(ids []int32, id int32) bool {
		for _, v := range ids {
			if v == id {
				return true
			}
		}
		return false
	}
	if !contains(before.IDs, victim.ID) {
		t.Fatalf("setup: reverse query at the victim's own location/text must report it, got %v", before.IDs)
	}

	for _, o := range []Object{victim, objs[8], objs[9]} {
		if found, _, err := eng.Delete(o.ID); err != nil || !found {
			t.Fatalf("Delete(%d): found=%v err=%v", o.ID, found, err)
		}
	}
	eng.Compact() // must NOT free anything the pinned reader can reach

	// The pinned snapshot answers exactly as before the deletes.
	after, err := eng.queryVector(context.Background(), st, victim.X, victim.Y, doc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after.IDs) != fmt.Sprint(before.IDs) {
		t.Fatalf("pinned snapshot drifted: %v != %v", after.IDs, before.IDs)
	}
	if err := st.tree.CheckInvariants(nil); err != nil {
		t.Fatalf("pinned snapshot corrupted by concurrent deletes: %v", err)
	}

	// A fresh query sees the post-delete index.
	fresh, err := eng.Query(victim.X, victim.Y, victim.Text, 3)
	if err != nil {
		t.Fatal(err)
	}
	if contains(fresh.IDs, victim.ID) {
		t.Fatalf("deleted object %d still visible to new queries: %v", victim.ID, fresh.IDs)
	}

	// The deletes' garbage is blocked on our pin.
	if eng.snap.Stats().Pending == 0 {
		t.Fatal("expected retired nodes pending behind the pin")
	}
	// Releasing the last pin unblocks reclamation (Release itself sweeps;
	// Compact would catch anything left).
	release()
	eng.Compact()
	if rs := eng.snap.Stats(); rs.Pending != 0 || rs.Freed == 0 {
		t.Fatalf("after release: pending=%d freed=%d", rs.Pending, rs.Freed)
	}
}

// TestLiveBytesBoundedUnderChurn proves repeated Insert/Delete no longer
// grows the index: retired path copies are freed and their slots reused,
// so live (and total) footprint stays within a constant factor of the
// steady state instead of growing linearly with the update count. The
// churn runs twice from the same seed: write counts and byte totals are
// a pure function of the seed.
func TestLiveBytesBoundedUnderChurn(t *testing.T) {
	churnStats := func() (s0, s1 IndexStats) {
		rng := rand.New(rand.NewSource(79))
		objs := genRestaurants(rng, 300)
		eng, err := Build(objs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		noPinsAtCleanup(t, eng)
		s0 = eng.Stats()
		const churn = 300
		for i := 0; i < churn; i++ {
			o := Object{ID: 50000, X: rng.Float64() * 100, Y: rng.Float64() * 100, Text: "sushi ramen"}
			if _, err := eng.Insert(o); err != nil {
				t.Fatal(err)
			}
			if found, _, err := eng.Delete(o.ID); err != nil || !found {
				t.Fatalf("churn %d: found=%v err=%v", i, found, err)
			}
		}
		eng.Compact()
		if freed := eng.snap.Stats().Freed; freed == 0 {
			t.Error("churn freed no retired nodes")
		}
		if err := eng.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return s0, eng.Stats()
	}
	s0, s1 := churnStats()
	if s1.PendingReclaim != 0 {
		t.Fatalf("%d nodes pending with no readers", s1.PendingReclaim)
	}
	// With nothing pending, every stored byte is live again.
	if s1.LiveBytes != s1.Bytes {
		t.Errorf("LiveBytes %d != TotalBytes %d after full reclamation", s1.LiveBytes, s1.Bytes)
	}
	// Each churn round path-copies ~height nodes; without reclamation
	// TotalBytes would grow by hundreds of node blobs. Allow the tree
	// shape to settle but reject anything resembling linear growth.
	if s1.LiveBytes > s0.LiveBytes*3/2 {
		t.Errorf("LiveBytes grew %d -> %d under churn", s0.LiveBytes, s1.LiveBytes)
	}
	if s1.Bytes > s0.Bytes*3/2 {
		t.Errorf("TotalBytes grew %d -> %d: freed slots not reused", s0.Bytes, s1.Bytes)
	}
	if s1.Nodes > s0.Nodes*2 {
		t.Errorf("slot count grew %d -> %d: free list not recycling", s0.Nodes, s1.Nodes)
	}
	if s1.Writes == 0 || s1.PagesWritten == 0 {
		t.Errorf("store-level write counters empty: %+v", s1)
	}
	_, again := churnStats()
	if again.Writes != s1.Writes || again.PagesWritten != s1.PagesWritten ||
		again.Bytes != s1.Bytes || again.LiveBytes != s1.LiveBytes || again.Nodes != s1.Nodes {
		t.Errorf("same-seed churn differs: writes %d/%d pages %d/%d bytes %d/%d live %d/%d nodes %d/%d",
			s1.Writes, again.Writes, s1.PagesWritten, again.PagesWritten,
			s1.Bytes, again.Bytes, s1.LiveBytes, again.LiveBytes, s1.Nodes, again.Nodes)
	}
}

// TestConcurrentQueryMutateRace runs 4 writers against 4 readers on one
// engine. Under -race this is the memory-safety acceptance test for the
// copy-on-write architecture; in any mode it checks snapshot invariants
// after every swap and full consistency at the end.
func TestConcurrentQueryMutateRace(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	objs := genRestaurants(rng, 150)
	eng, err := Build(objs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	noPinsAtCleanup(t, eng)

	const writers, readers, opsPerWriter = 4, 4, 30
	var writerWG, readerWG sync.WaitGroup
	done := make(chan struct{})
	errCh := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			wrng := rand.New(rand.NewSource(int64(1000 + w)))
			base := int32(10000 + w*1000)
			for i := 0; i < opsPerWriter; i++ {
				o := Object{
					ID:   base + int32(i),
					X:    wrng.Float64() * 100,
					Y:    wrng.Float64() * 100,
					Text: menuTerms[wrng.Intn(len(menuTerms))],
				}
				var err error
				switch i % 3 {
				case 0:
					_, err = eng.Insert(o)
				case 1:
					_, err = eng.Apply(Batch{Insert: []Object{o}, Delete: []int32{base + int32(i-2)}})
				default:
					_, err = eng.Insert(o)
					if err == nil {
						_, _, err = eng.Delete(o.ID)
					}
				}
				if err != nil {
					errCh <- fmt.Errorf("writer %d op %d: %w", w, i, err)
					return
				}
				// Invariants must hold on the snapshot just published.
				if err := eng.CheckInvariants(); err != nil {
					errCh <- fmt.Errorf("writer %d after op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rrng := rand.New(rand.NewSource(int64(2000 + r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				x, y := rrng.Float64()*100, rrng.Float64()*100
				text := menuTerms[rrng.Intn(len(menuTerms))]
				switch r % 3 {
				case 0:
					if _, err := eng.Query(x, y, text, 3); err != nil {
						errCh <- fmt.Errorf("reader %d: %w", r, err)
						return
					}
				case 1:
					reqs := []QueryRequest{{X: x, Y: y, Text: text, K: 2}, {X: y, Y: x, Text: text, K: 4}}
					for i, br := range eng.BatchQuery(reqs, 2) {
						if br.Err != nil {
							errCh <- fmt.Errorf("reader %d batch %d: %w", r, i, br.Err)
							return
						}
					}
				default:
					eng.Stats()
					if _, err := eng.TopK(x, y, text, 3); err != nil {
						errCh <- fmt.Errorf("reader %d topk: %w", r, err)
						return
					}
				}
			}
		}(r)
	}

	// Stop readers once writers finish.
	writerWG.Wait()
	close(done)
	readerWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	eng.Compact()
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Final contents: originals plus exactly the inserts each writer left
	// live (i%3==2 inserts are deleted again; i%3==1 deletes i-2).
	queriesAgree(t, eng, rng, 5)
}

// An engine grown by Insert from an empty start must normalize distances
// like an engine built over the same objects: the placeholder maxD 1 of a
// single-point dataspace gives way to the first positive diagonal.
func TestInsertFromEmptyMatchesBuildMaxD(t *testing.T) {
	objs := []Object{
		{ID: 1, X: 0, Y: 0, Text: "sushi ramen"},
		{ID: 2, X: 0.3, Y: 0.4, Text: "ramen noodle bar"},
	}
	built, err := Build(objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noPinsAtCleanup(t, built)
	if got := built.Stats().MaxDistance; got != 0.5 {
		t.Fatalf("built engine maxD = %g, want 0.5", got)
	}
	fromNil, err := Build(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noPinsAtCleanup(t, fromNil)
	// Emptied keeps the build-time vocabulary, so its documents weigh
	// exactly like the built engine's and the answers must agree.
	emptied, err := Build(objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noPinsAtCleanup(t, emptied)
	for _, o := range objs {
		if _, _, err := emptied.Delete(o.ID); err != nil {
			t.Fatal(err)
		}
	}
	for name, eng := range map[string]*Engine{"built empty": fromNil, "emptied": emptied} {
		for _, o := range objs {
			if _, err := eng.Insert(o); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if got := eng.Stats().MaxDistance; got != 0.5 {
			t.Errorf("%s: maxD = %g after inserts, want 0.5 as built", name, got)
		}
	}
	for _, q := range []struct {
		x, y float64
		text string
	}{{0.1, 0.1, "ramen"}, {0.2, 0.3, "sushi"}, {0.15, 0.2, "noodle bar"}, {0.05, 0.05, "bar"}} {
		want, err := built.Query(q.x, q.y, q.text, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := emptied.Query(q.x, q.y, q.text, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.IDs, want.IDs) {
			t.Errorf("query (%g,%g,%q): grown engine %v, built engine %v", q.x, q.y, q.text, got.IDs, want.IDs)
		}
	}
}
