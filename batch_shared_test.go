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

// TestBatchMatchesQueryCtx pins a batch to the QueryCtx path: two
// identical engines, one answering the requests as a batch and the other
// as QueryCtx calls in request order, must agree on every request's IDs
// and QueryStats apart from Duration. The buffer pool makes the I/O
// counters depend on the read order, so they check that the batch reads
// what the calls read, in the same order. BatchStats must hold the sums.
func TestBatchMatchesQueryCtx(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	objs := genRestaurants(rng, 900)
	for _, idx := range []IndexKind{IUR, CIUR} {
		t.Run(idx.String(), func(t *testing.T) {
			opt := Options{Index: idx, Seed: 5, BufferPoolPages: 24, Workers: 1}
			batched, err := Build(objs, opt)
			if err != nil {
				t.Fatal(err)
			}
			single, err := Build(objs, opt)
			if err != nil {
				t.Fatal(err)
			}
			reqs := make([]QueryRequest, 24)
			for i := range reqs {
				reqs[i] = QueryRequest{X: rng.Float64() * 100, Y: rng.Float64() * 100,
					Text: menuTerms[i%len(menuTerms)], K: 1 + i%6}
			}
			ctx := context.Background()
			out, bs := batched.BatchQueryStatsCtx(ctx, reqs, 1)
			var nodes int
			var pages int64
			for i, r := range reqs {
				want, err := single.QueryCtx(ctx, r.X, r.Y, r.Text, r.K)
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				if out[i].Err != nil {
					t.Fatalf("request %d: %v", i, out[i].Err)
				}
				got := out[i].Result
				if !reflect.DeepEqual(got.IDs, want.IDs) {
					t.Errorf("request %d: IDs %v != QueryCtx %v", i, got.IDs, want.IDs)
				}
				gs, ws := got.Stats, want.Stats
				gs.Duration, ws.Duration = 0, 0
				if gs != ws {
					t.Errorf("request %d: stats drifted:\nbatch    %+v\nQueryCtx %+v", i, gs, ws)
				}
				nodes += want.Stats.NodesRead
				pages += want.Stats.PageAccesses
			}
			if bs.Requests != len(reqs) || bs.NodesRead != nodes || bs.PageAccesses != pages {
				t.Errorf("BatchStats %+v, want %d reads and %d pages", bs, nodes, pages)
			}
			if want := float64(nodes) / float64(len(reqs)); bs.NodesReadPerQuery != want {
				t.Errorf("NodesReadPerQuery %g != %g", bs.NodesReadPerQuery, want)
			}
		})
	}
}

// TestBatchOneRequestMatchesQuery pins a one-request batch to QueryCtx
// when the batch's parallelism differs from the engine's Workers: same
// IDs, same QueryStats counters, and BatchStats whose reads are the
// query's own.
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
			if bs.Requests != 1 || bs.NodesRead != want.Stats.NodesRead || bs.PageAccesses != want.Stats.PageAccesses {
				t.Fatalf("%v trial %d: BatchStats %+v for stats %+v", opt.Index, trial, bs, want.Stats)
			}
		}
	}
}

// TestBatchSharedMixedValidity pins per-request error isolation: invalid
// requests fail individually without failing the valid ones.
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
	out := eng.BatchQueryCtx(context.Background(), reqs, 0)
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
// batch path: writers hammer Insert/Delete/Apply while readers run
// batches of IDENTICAL requests. Because the whole batch pins
// ONE snapshot, all copies of the request inside one batch must return
// the same IDs even though the index version changes between batches —
// any torn read of a swapped snapshot or a reclaimed node would break
// the agreement (or trip the race detector).
func TestBatchSharedSnapshotUnderMutation(t *testing.T) {
	// Raise the worker clamp so batches run genuinely parallel rounds
	// even on a 1-CPU machine — otherwise the intra-query concurrency
	// this test (and -race) targets never materializes.
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
				out := eng.BatchQueryCtx(context.Background(), reqs, 1+rrng.Intn(4))
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
