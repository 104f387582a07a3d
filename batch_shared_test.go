package rstknn

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestBatchSharedMatchesAblation pins the engine-level equivalence of
// shared-traversal batch execution: against the same requests answered
// one by one through QueryCtx, a shared batch must return identical
// per-request IDs and identical per-request logical counters, while its
// BatchStats show strictly fewer physical node reads.
func TestBatchSharedMatchesAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	objs := genRestaurants(rng, 900)
	for _, idx := range []IndexKind{IUR, CIUR} {
		t.Run(idx.String(), func(t *testing.T) {
			shared, err := Build(objs, Options{Index: idx, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			reqs := make([]QueryRequest, 24)
			for i := range reqs {
				reqs[i] = QueryRequest{X: rng.Float64() * 100, Y: rng.Float64() * 100,
					Text: menuTerms[i%len(menuTerms)], K: 1 + i%6}
			}
			ctx := context.Background()
			// The reference: every request answered alone, whose physical
			// reads are its logical ones.
			iRes := make([]*Result, len(reqs))
			indepReads := 0
			for i, r := range reqs {
				if iRes[i], err = shared.QueryCtx(ctx, r.X, r.Y, r.Text, r.K); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				indepReads += iRes[i].Stats.NodesRead
			}
			for _, parallelism := range []int{1, 4} {
				sRes, sStats := shared.BatchQueryStatsCtx(ctx, reqs, parallelism)
				if !sStats.Shared {
					t.Fatalf("parallelism=%d: default engine did not share", parallelism)
				}
				logical := 0
				for i := range reqs {
					tag := fmt.Sprintf("parallelism=%d request=%d", parallelism, i)
					if sRes[i].Err != nil {
						t.Fatalf("%s: %v", tag, sRes[i].Err)
					}
					ss, is := sRes[i].Result.Stats, iRes[i].Stats
					if !reflect.DeepEqual(sRes[i].Result.IDs, iRes[i].IDs) {
						t.Errorf("%s: IDs %v != independent %v", tag, sRes[i].Result.IDs, iRes[i].IDs)
					}
					if ss.NodesRead != is.NodesRead || ss.ExactSims != is.ExactSims ||
						ss.BoundEvals != is.BoundEvals || ss.GroupPruned != is.GroupPruned ||
						ss.GroupReported != is.GroupReported || ss.Candidates != is.Candidates ||
						ss.Refinements != is.Refinements {
						t.Errorf("%s: logical counters drifted:\nshared      %+v\nindependent %+v", tag, ss, is)
					}
					if ss.SharedReads != int64(ss.NodesRead) {
						t.Errorf("%s: SharedReads %d != NodesRead %d", tag, ss.SharedReads, ss.NodesRead)
					}
					if ss.PageAccesses != 0 {
						t.Errorf("%s: shared query charged %d pages; physical I/O belongs to BatchStats", tag, ss.PageAccesses)
					}
					if r := ss.CacheHitRatio(); r != 1 {
						t.Errorf("%s: CacheHitRatio %g, want 1 (every read batch-shared)", tag, r)
					}
					if is.SharedReads != 0 {
						t.Errorf("%s: independent query recorded %d shared reads", tag, is.SharedReads)
					}
					logical += ss.NodesRead
				}
				if sStats.NodesRead >= indepReads {
					t.Errorf("parallelism=%d: shared physical reads %d not below independent %d",
						parallelism, sStats.NodesRead, indepReads)
				}
				if sStats.SharedHits != logical-sStats.NodesRead {
					t.Errorf("parallelism=%d: SharedHits %d != logical %d - physical %d",
						parallelism, sStats.SharedHits, logical, sStats.NodesRead)
				}
				if want := float64(sStats.NodesRead) / float64(len(reqs)); sStats.NodesReadPerQuery != want {
					t.Errorf("parallelism=%d: NodesReadPerQuery %g != %g",
						parallelism, sStats.NodesReadPerQuery, want)
				}
				if sStats.Requests != len(reqs) {
					t.Errorf("parallelism=%d: Requests %d != %d", parallelism, sStats.Requests, len(reqs))
				}
			}
		})
	}
}

// TestBatchOneRequestMatchesQuery pins the one-request batch to the
// QueryCtx path: same IDs, same QueryStats counters, an unshared
// BatchStats whose physical reads are the query's own.
func TestBatchOneRequestMatchesQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	objs := genRestaurants(rng, 400)
	for _, opt := range []Options{{}, {Index: CIUR, Seed: 5, Workers: 1}} {
		eng, err := Build(objs, opt)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for trial := 0; trial < 6; trial++ {
			r := QueryRequest{X: rng.Float64() * 100, Y: rng.Float64() * 100,
				Text: menuTerms[rng.Intn(len(menuTerms))], K: 1 + rng.Intn(6)}
			want, err := eng.QueryCtx(ctx, r.X, r.Y, r.Text, r.K)
			if err != nil {
				t.Fatal(err)
			}
			out, bs := eng.BatchQueryStatsCtx(ctx, []QueryRequest{r}, 4)
			if out[0].Err != nil {
				t.Fatal(out[0].Err)
			}
			got := out[0].Result
			got.Stats.Duration, want.Stats.Duration = 0, 0
			if !reflect.DeepEqual(got.IDs, want.IDs) || got.Stats != want.Stats {
				t.Fatalf("%v trial %d: batch %v %+v, QueryCtx %v %+v", opt.Index, trial,
					got.IDs, got.Stats, want.IDs, want.Stats)
			}
			if bs.Shared || bs.Requests != 1 || bs.SharedHits != 0 ||
				bs.NodesRead != want.Stats.NodesRead || bs.PageAccesses != want.Stats.PageAccesses {
				t.Fatalf("%v trial %d: BatchStats %+v for stats %+v", opt.Index, trial, bs, want.Stats)
			}
		}
	}
}

// TestBatchSharedMixedValidity pins per-request error isolation on the
// shared path: invalid requests fail individually without dragging the
// valid ones out of the shared traversal.
func TestBatchSharedMixedValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	eng, err := Build(genRestaurants(rng, 300), Options{})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []QueryRequest{
		{X: 10, Y: 10, Text: "sushi", K: 3},
		{X: 20, Y: 20, Text: "ramen", K: 0},
		{X: 30, Y: 30, Text: "pizza", K: 2},
	}
	out, bs := eng.BatchQueryStatsCtx(context.Background(), reqs, 0)
	if !bs.Shared {
		t.Fatal("expected the shared path")
	}
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("valid requests failed: %v / %v", out[0].Err, out[2].Err)
	}
	if out[1].Err == nil {
		t.Fatal("K=0 request succeeded")
	}
	// A pre-cancelled context fails every request up front.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out = eng.BatchQueryCtx(ctx, reqs[:2], 0)
	for i := range out {
		if out[i].Err == nil {
			t.Errorf("request %d ignored the cancelled context", i)
		}
	}
}

// TestBatchSharedSnapshotUnderMutation is the -race stress test for the
// shared batch path: writers hammer Insert/Delete/Apply while readers
// run shared batches of IDENTICAL requests. Because the whole batch pins
// ONE snapshot, all copies of the request inside one batch must return
// the same IDs even though the index version changes between batches —
// any torn read of a swapped snapshot or a reclaimed node would break
// the agreement (or trip the race detector).
func TestBatchSharedSnapshotUnderMutation(t *testing.T) {
	// Raise the worker clamp so shared batches run genuinely parallel
	// rounds even on a 1-CPU machine — otherwise the intra-batch
	// concurrency this test (and -race) targets never materializes.
	if runtime.GOMAXPROCS(0) < 4 {
		prev := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	rng := rand.New(rand.NewSource(35))
	objs := genRestaurants(rng, 500)
	eng, err := Build(objs, Options{})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	errCh := make(chan error, 8)
	var writerWG, readerWG sync.WaitGroup

	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		wrng := rand.New(rand.NewSource(99))
		nextID := int32(10000)
		deadline := time.Now().Add(600 * time.Millisecond)
		for i := 0; time.Now().Before(deadline); i++ {
			switch i % 3 {
			case 0:
				o := Object{ID: nextID, X: wrng.Float64() * 100, Y: wrng.Float64() * 100,
					Text: menuTerms[wrng.Intn(len(menuTerms))]}
				nextID++
				if _, err := eng.Insert(o); err != nil {
					errCh <- fmt.Errorf("insert: %w", err)
					return
				}
			case 1:
				if _, _, err := eng.Delete(int32(wrng.Intn(500))); err != nil {
					errCh <- fmt.Errorf("delete: %w", err)
					return
				}
			default:
				b := Batch{
					Insert: []Object{{ID: nextID, X: wrng.Float64() * 100, Y: wrng.Float64() * 100,
						Text: menuTerms[wrng.Intn(len(menuTerms))]}},
					Delete: []int32{int32(wrng.Intn(500))},
				}
				nextID++
				if _, err := eng.Apply(b); err != nil {
					errCh <- fmt.Errorf("apply: %w", err)
					return
				}
			}
			eng.Compact()
		}
	}()

	for r := 0; r < 3; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rrng := rand.New(rand.NewSource(int64(500 + r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				req := QueryRequest{X: rrng.Float64() * 100, Y: rrng.Float64() * 100,
					Text: menuTerms[rrng.Intn(len(menuTerms))], K: 1 + rrng.Intn(5)}
				reqs := make([]QueryRequest, 6)
				for i := range reqs {
					reqs[i] = req
				}
				out, bs := eng.BatchQueryStatsCtx(context.Background(), reqs, 1+rrng.Intn(4))
				if !bs.Shared {
					errCh <- fmt.Errorf("reader %d: batch not shared", r)
					return
				}
				for i := range out {
					if out[i].Err != nil {
						errCh <- fmt.Errorf("reader %d request %d: %w", r, i, out[i].Err)
						return
					}
					if !reflect.DeepEqual(out[i].Result.IDs, out[0].Result.IDs) {
						errCh <- fmt.Errorf("reader %d: identical requests disagree within one batch: %v vs %v — snapshot not stable",
							r, out[i].Result.IDs, out[0].Result.IDs)
						return
					}
				}
			}
		}(r)
	}

	writerWG.Wait()
	close(done)
	readerWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
