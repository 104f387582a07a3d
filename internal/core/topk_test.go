package core_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rstknn/internal/cluster"
	"rstknn/internal/core"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// bruteTopK computes the top-k by exhaustive scan, mirroring TopK's
// semantics (ties by ascending ID, optional exclusion).
func bruteTopK(objs []iurtree.Object, q core.Query, k int, alpha, maxD float64, sim vector.TextSim, exclude int32) []core.Neighbor {
	sc := core.NewScorer(alpha, maxD, sim)
	out := make([]core.Neighbor, 0, len(objs))
	for i := range objs {
		if objs[i].ID == exclude {
			continue
		}
		out = append(out, core.Neighbor{
			ID:  objs[i].ID,
			Sim: sc.Exact(objs[i].Loc, objs[i].Doc, q.Loc, q.Doc),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sim != out[j].Sim {
			return out[i].Sim > out[j].Sim
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func TestTopKMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, clusters := range []int{0, 5} {
		objs := genObjects(rng, 400, 30, 5)
		tree := buildTree(t, objs, clusters, false)
		for trial := 0; trial < 15; trial++ {
			k := 1 + rng.Intn(12)
			alpha := rng.Float64()
			q := genQuery(rng, 30, 5)
			got, _, err := core.TopK(tree, q, core.TopKOptions{K: k, Alpha: alpha, Exclude: -1})
			if err != nil {
				t.Fatal(err)
			}
			want := bruteTopK(objs, q, k, alpha, tree.MaxD(), vector.EJ{}, -1)
			if len(got) != len(want) {
				t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
			}
			for i := range got {
				// Similarities must match exactly; IDs may differ only on
				// exact similarity ties.
				if got[i].Sim != want[i].Sim {
					t.Fatalf("trial %d rank %d: sim %g, want %g", trial, i, got[i].Sim, want[i].Sim)
				}
			}
		}
	}
}

func TestTopKExclude(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	objs := genObjects(rng, 100, 20, 4)
	tree := buildTree(t, objs, 0, false)
	o := objs[5]
	q := core.Query{Loc: o.Loc, Doc: o.Doc}
	got, _, err := core.TopK(tree, q, core.TopKOptions{K: 3, Alpha: 0.5, Exclude: o.ID})
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range got {
		if nb.ID == o.ID {
			t.Fatal("excluded object appeared in results")
		}
	}
	want := bruteTopK(objs, q, 3, 0.5, tree.MaxD(), vector.EJ{}, o.ID)
	for i := range got {
		if got[i].Sim != want[i].Sim {
			t.Fatalf("rank %d: sim %g, want %g", i, got[i].Sim, want[i].Sim)
		}
	}
}

func TestTopKFewerThanK(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	objs := genObjects(rng, 4, 10, 3)
	tree := buildTree(t, objs, 0, false)
	got, _, err := core.TopK(tree, genQuery(rng, 10, 3), core.TopKOptions{K: 10, Alpha: 0.5, Exclude: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("got %d results, want all 4", len(got))
	}
}

func TestTopKEmptyTreeAndValidation(t *testing.T) {
	tree := buildTree(t, nil, 0, false)
	got, _, err := core.TopK(tree, core.Query{}, core.TopKOptions{K: 3, Alpha: 0.5, Exclude: -1})
	if err != nil || len(got) != 0 {
		t.Errorf("empty tree: %v, %v", got, err)
	}
	small := buildTree(t, genObjects(rand.New(rand.NewSource(2)), 5, 10, 3), 0, false)
	if _, _, err := core.TopK(small, core.Query{}, core.TopKOptions{K: 0, Alpha: 0.5}); err == nil {
		t.Error("K=0 should fail")
	}
	if _, _, err := core.TopK(small, core.Query{}, core.TopKOptions{K: 1, Alpha: 2}); err == nil {
		t.Error("bad alpha should fail")
	}
}

func TestKthSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	objs := genObjects(rng, 50, 15, 4)
	tree := buildTree(t, objs, 0, false)
	q := genQuery(rng, 15, 4)
	kth, _, err := core.KthSimilarity(tree, q, core.TopKOptions{K: 5, Alpha: 0.5, Exclude: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteTopK(objs, q, 5, 0.5, tree.MaxD(), vector.EJ{}, -1)[4].Sim
	if kth != want {
		t.Errorf("KthSimilarity = %g, want %g", kth, want)
	}
	// Fewer than k objects: -Inf.
	tiny := buildTree(t, genObjects(rng, 3, 10, 3), 0, false)
	kth, _, err = core.KthSimilarity(tiny, q, core.TopKOptions{K: 5, Alpha: 0.5, Exclude: -1})
	if err != nil {
		t.Fatal(err)
	}
	if kth > -1e308 {
		t.Errorf("KthSimilarity with < k objects = %g, want -Inf", kth)
	}
}

func TestTopKPrunesNodes(t *testing.T) {
	// The best-first search must read far fewer nodes than the whole tree
	// on a spatially selective query.
	rng := rand.New(rand.NewSource(39))
	objs := genObjects(rng, 3000, 50, 5)
	tree := buildTree(t, objs, 0, false)
	totalNodes := 0
	if err := tree.Walk(nil, func(n *iurtree.Node, depth int) error {
		totalNodes++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	q := core.Query{Loc: objs[0].Loc, Doc: objs[0].Doc}
	_, m, err := core.TopK(tree, q, core.TopKOptions{K: 5, Alpha: 0.9, Exclude: -1})
	if err != nil {
		t.Fatal(err)
	}
	if m.NodesRead >= totalNodes/2 {
		t.Errorf("TopK read %d of %d nodes; expected strong pruning", m.NodesRead, totalNodes)
	}
}

// TestTopKAndCountExceedingAccounting pins the I/O accounting of the two
// best-first searches: every node counted in Metrics.NodesRead is exactly
// one tracker charge — a read or a buffer-pool hit — on IUR and CIUR
// trees, with and without a buffer pool, and the answers still match the
// brute-force scans.
func TestTopKAndCountExceedingAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	objs := genObjects(rng, 400, 30, 5)
	docs := make([]vector.Vector, len(objs))
	for i, o := range objs {
		docs[i] = o.Doc
	}
	for _, clusters := range []int{0, 5} {
		for _, pool := range []int{0, 32} {
			var opts []storage.Option
			if pool > 0 {
				opts = append(opts, storage.WithBufferPool(pool))
			}
			cfg := iurtree.Config{Store: storage.NewStore(opts...)}
			if clusters > 0 {
				cfg.Clustering = cluster.Run(docs, cluster.Config{K: clusters, Seed: 7})
			}
			tree, err := iurtree.Build(objs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sc := core.NewScorer(0.5, tree.MaxD(), nil)
			var hits int64
			for trial := 0; trial < 8; trial++ {
				tag := fmt.Sprintf("clusters=%d pool=%d trial=%d", clusters, pool, trial)
				q := genQuery(rng, 30, 5)
				k := 1 + rng.Intn(10)

				var tk storage.Tracker
				got, m, err := core.TopK(tree, q, core.TopKOptions{K: k, Alpha: 0.5, Exclude: -1, Tracker: &tk})
				if err != nil {
					t.Fatal(err)
				}
				if m.NodesRead == 0 || tk.Reads()+tk.CacheHits() != int64(m.NodesRead) {
					t.Errorf("%s: TopK NodesRead %d, tracker reads %d + hits %d",
						tag, m.NodesRead, tk.Reads(), tk.CacheHits())
				}
				want := bruteTopK(objs, q, k, 0.5, tree.MaxD(), vector.EJ{}, -1)
				if len(got) != len(want) {
					t.Fatalf("%s: TopK returned %d neighbors, want %d", tag, len(got), len(want))
				}
				for i := range got {
					if got[i].Sim != want[i].Sim {
						t.Fatalf("%s rank %d: sim %g, want %g", tag, i, got[i].Sim, want[i].Sim)
					}
				}

				ref := objs[rng.Intn(len(objs))]
				threshold := sc.Exact(ref.Loc, ref.Doc, q.Loc, q.Doc)
				wantCount := 0
				for i := range objs {
					if sc.Exact(objs[i].Loc, objs[i].Doc, q.Loc, q.Doc) > threshold {
						wantCount++
					}
				}
				var tc storage.Tracker
				n, cm, err := core.CountExceeding(tree, q, threshold, len(objs)+1,
					core.BichromaticOptions{Alpha: 0.5, Tracker: &tc})
				if err != nil {
					t.Fatal(err)
				}
				if n != wantCount {
					t.Errorf("%s: CountExceeding = %d, want %d", tag, n, wantCount)
				}
				if tc.Reads()+tc.CacheHits() != int64(cm.NodesRead) {
					t.Errorf("%s: CountExceeding NodesRead %d, tracker reads %d + hits %d",
						tag, cm.NodesRead, tc.Reads(), tc.CacheHits())
				}
				hits += tk.CacheHits() + tc.CacheHits()
			}
			if (pool > 0) != (hits > 0) {
				t.Errorf("clusters=%d pool=%d: %d buffer-pool hits", clusters, pool, hits)
			}
		}
	}
}
