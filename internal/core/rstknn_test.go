package core_test

import (
	"math/rand"
	"testing"

	"rstknn/internal/baseline"
	"rstknn/internal/cluster"
	"rstknn/internal/core"
	"rstknn/internal/geom"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// genObjects builds a random spatial-textual dataset: Gaussian spatial
// clusters and Zipf-ish term draws from a vocabulary, mimicking the shape
// of the paper's collections at test scale.
func genObjects(rng *rand.Rand, n, vocab, maxTerms int) []iurtree.Object {
	objs := make([]iurtree.Object, n)
	// A handful of spatial cluster centers.
	centers := make([]geom.Point, 5)
	for i := range centers {
		centers[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	for i := range objs {
		c := centers[rng.Intn(len(centers))]
		loc := geom.Point{
			X: c.X + rng.NormFloat64()*8,
			Y: c.Y + rng.NormFloat64()*8,
		}
		m := make(map[vector.TermID]float64)
		nt := 1 + rng.Intn(maxTerms)
		for j := 0; j < nt; j++ {
			// Skewed term distribution: low IDs are common.
			t := vector.TermID(int(float64(vocab) * rng.Float64() * rng.Float64()))
			m[t] = 0.5 + rng.Float64()*2
		}
		objs[i] = iurtree.Object{ID: int32(i), Loc: loc, Doc: vector.New(m)}
	}
	return objs
}

func genQuery(rng *rand.Rand, vocab, maxTerms int) core.Query {
	m := make(map[vector.TermID]float64)
	for j := 0; j < 1+rng.Intn(maxTerms); j++ {
		m[vector.TermID(rng.Intn(vocab))] = 0.5 + rng.Float64()*2
	}
	return core.Query{
		Loc: geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
		Doc: vector.New(m),
	}
}

// buildTree bulk-loads objs, as a CIUR-tree when clusters > 0, or grows
// an IUR-tree from empty by one Insert per object when incremental is
// set.
func buildTree(t *testing.T, objs []iurtree.Object, clusters int, incremental bool) *iurtree.Snapshot {
	t.Helper()
	if incremental {
		return growTree(t, objs)
	}
	cfg := iurtree.Config{Store: storage.NewStore()}
	if clusters > 0 {
		docs := make([]vector.Vector, len(objs))
		for i, o := range objs {
			docs[i] = o.Doc
		}
		cfg.Clustering = cluster.Run(docs, cluster.Config{K: clusters, Seed: 7, OutlierThreshold: 0.1})
	}
	tr, err := iurtree.Build(objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// growTree grows an IUR-tree from empty by one Insert per object, the
// path live updates take. Retired nodes go through a reclaimer whose
// on-free hook drops them from the bound cache before a later insert
// recycles their IDs.
func growTree(t *testing.T, objs []iurtree.Object) *iurtree.Snapshot {
	t.Helper()
	store := storage.NewStore()
	tr, err := iurtree.Build(nil, iurtree.Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	rec := storage.NewReclaimer(store)
	rec.SetOnFree(tr.InvalidateNode)
	for _, o := range objs {
		next, retired, err := tr.Insert(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec.Retire(retired)
		tr = next
	}
	return tr
}

func idsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRSTkNNMatchesNaive is the central correctness test of the
// repository: across dataset shapes, alphas, ks, similarity measures,
// tree variants, and refinement strategies, the branch-and-bound search
// must return exactly the oracle's answer.
func TestRSTkNNMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	configs := []struct {
		name     string
		clusters int
		incr     bool
		strategy core.RefineStrategy
		group    int
	}{
		{"iur", 0, false, core.RefineByMaxUpper, 0},
		{"iur-incremental", 0, true, core.RefineByMaxUpper, 0},
		{"iur-group-refine", 0, false, core.RefineByMaxUpper, 2},
		{"ciur", 6, false, core.RefineByMaxUpper, 0},
		{"ciur-entropy", 6, false, core.RefineByEntropy, 0},
		{"ciur-entropy-group", 6, false, core.RefineByEntropy, 3},
	}
	sims := []vector.TextSim{vector.EJ{}, vector.Cosine{}}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			objs := genObjects(rng, 180+rng.Intn(120), 40, 6)
			tree := buildTree(t, objs, cfg.clusters, cfg.incr)
			for trial := 0; trial < 6; trial++ {
				k := []int{1, 2, 5, 10}[rng.Intn(4)]
				alpha := []float64{0, 0.1, 0.5, 0.9, 1}[rng.Intn(5)]
				sim := sims[rng.Intn(len(sims))]
				q := genQuery(rng, 40, 6)
				want, err := baseline.Naive(objs, q, k, alpha, tree.MaxD(), sim)
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.RSTkNN(tree, q, core.Options{
					K: k, Alpha: alpha, Sim: sim,
					Strategy: cfg.strategy, GroupRefine: cfg.group,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !idsEqual(got.Results, want) {
					t.Fatalf("trial %d (k=%d alpha=%g sim=%s): got %d results %v, want %d %v",
						trial, k, alpha, sim.Name(), len(got.Results), got.Results, len(want), want)
				}
			}
		})
	}
}

func TestRSTkNNSmallDatasets(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 3, 5, 8} {
		objs := genObjects(rng, n, 10, 3)
		tree := buildTree(t, objs, 0, false)
		for _, k := range []int{1, 2, 5} {
			q := genQuery(rng, 10, 3)
			want, err := baseline.Naive(objs, q, k, 0.5, tree.MaxD(), nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.RSTkNN(tree, q, core.Options{K: k, Alpha: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			if !idsEqual(got.Results, want) {
				t.Fatalf("n=%d k=%d: got %v, want %v", n, k, got.Results, want)
			}
			// When k >= n, every object lacks a k-th neighbor and must be
			// reported.
			if k >= n && len(got.Results) != n {
				t.Fatalf("n=%d k=%d: expected all objects, got %d", n, k, len(got.Results))
			}
		}
	}
}

func TestRSTkNNEmptyTree(t *testing.T) {
	tree := buildTree(t, nil, 0, false)
	got, err := core.RSTkNN(tree, core.Query{}, core.Options{K: 3, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 0 {
		t.Errorf("empty tree returned %v", got.Results)
	}
}

func TestRSTkNNValidation(t *testing.T) {
	tree := buildTree(t, genObjects(rand.New(rand.NewSource(1)), 10, 10, 3), 0, false)
	if _, err := core.RSTkNN(tree, core.Query{}, core.Options{K: 0, Alpha: 0.5}); err == nil {
		t.Error("K=0 should fail")
	}
	if _, err := core.RSTkNN(tree, core.Query{}, core.Options{K: 1, Alpha: 1.5}); err == nil {
		t.Error("alpha out of range should fail")
	}
	if _, err := core.RSTkNN(tree, core.Query{}, core.Options{K: 1, Alpha: -0.1}); err == nil {
		t.Error("negative alpha should fail")
	}
}

func TestRSTkNNQueryIdenticalToObject(t *testing.T) {
	// The query coincides exactly with an indexed object: it must then be
	// in that object's top-k for any k (similarity 1 to itself... to the
	// co-located twin), and results still match the oracle.
	rng := rand.New(rand.NewSource(11))
	objs := genObjects(rng, 100, 20, 4)
	tree := buildTree(t, objs, 0, false)
	q := core.Query{Loc: objs[7].Loc, Doc: objs[7].Doc}
	want, err := baseline.Naive(objs, q, 3, 0.5, tree.MaxD(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.RSTkNN(tree, q, core.Options{K: 3, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !idsEqual(got.Results, want) {
		t.Fatalf("got %v, want %v", got.Results, want)
	}
	// The twin object itself must be a result: the query ties its
	// similarity-1 self-comparison.
	found := false
	for _, id := range got.Results {
		if id == 7 {
			found = true
		}
	}
	if !found {
		t.Error("co-located identical object should be a result")
	}
}

func TestRSTkNNExtremeAlphas(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	objs := genObjects(rng, 150, 25, 5)
	for _, clusters := range []int{0, 5} {
		tree := buildTree(t, objs, clusters, false)
		for _, alpha := range []float64{0, 1} {
			for trial := 0; trial < 3; trial++ {
				q := genQuery(rng, 25, 5)
				want, err := baseline.Naive(objs, q, 5, alpha, tree.MaxD(), nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.RSTkNN(tree, q, core.Options{K: 5, Alpha: alpha})
				if err != nil {
					t.Fatal(err)
				}
				if !idsEqual(got.Results, want) {
					t.Fatalf("clusters=%d alpha=%g: got %v, want %v", clusters, alpha, got.Results, want)
				}
			}
		}
	}
}

func TestRSTkNNEmptyQueryDoc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	objs := genObjects(rng, 120, 20, 4)
	tree := buildTree(t, objs, 4, false)
	q := core.Query{Loc: geom.Point{X: 50, Y: 50}} // no keywords at all
	want, err := baseline.Naive(objs, q, 4, 0.3, tree.MaxD(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.RSTkNN(tree, q, core.Options{K: 4, Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !idsEqual(got.Results, want) {
		t.Fatalf("got %v, want %v", got.Results, want)
	}
}

func TestRSTkNNQueryFarOutsideSpace(t *testing.T) {
	// A query far outside the dataspace: spatial similarities to it go
	// negative (dist > maxD), which the algorithm must handle gracefully.
	rng := rand.New(rand.NewSource(19))
	objs := genObjects(rng, 100, 20, 4)
	tree := buildTree(t, objs, 0, false)
	q := genQuery(rng, 20, 4)
	q.Loc = geom.Point{X: 1e4, Y: -1e4}
	want, err := baseline.Naive(objs, q, 3, 0.7, tree.MaxD(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.RSTkNN(tree, q, core.Options{K: 3, Alpha: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if !idsEqual(got.Results, want) {
		t.Fatalf("got %v, want %v", got.Results, want)
	}
}

func TestMetricsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	objs := genObjects(rng, 300, 30, 5)
	tree := buildTree(t, objs, 0, false)
	store := tree.Store()
	store.ResetStats()
	got, err := core.RSTkNN(tree, genQuery(rng, 30, 5), core.Options{K: 5, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	m := got.Metrics
	if m.NodesRead <= 0 || m.ExactSims <= 0 || m.BoundEvals <= 0 {
		t.Errorf("metrics look empty: %+v", m)
	}
	st := store.Stats()
	if st.Reads != int64(m.NodesRead) {
		t.Errorf("store reads %d != NodesRead %d", st.Reads, m.NodesRead)
	}
	// Every object is accounted for exactly once: group-pruned,
	// group-reported, or individually examined.
	if m.GroupPruned+m.GroupReported+m.Candidates != len(objs) {
		t.Errorf("accounting mismatch: %d + %d + %d != %d",
			m.GroupPruned, m.GroupReported, m.Candidates, len(objs))
	}
}

// TestRSTkNNAfterDynamicUpdates verifies the search remains exact on a
// tree mutated after sealing: build on half the objects, insert the
// rest, delete a slice, then compare against the oracle over the final
// object set.
func TestRSTkNNAfterDynamicUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	objs := genObjects(rng, 260, 30, 5)
	tree := buildTree(t, objs[:130], 0, false)
	for _, o := range objs[130:] {
		next, _, err := tree.Insert(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		tree = next
	}
	final := append([]iurtree.Object(nil), objs...)
	// Delete every 7th object.
	var kept []iurtree.Object
	for i, o := range final {
		if i%7 == 0 {
			next, _, ok, err := tree.Delete(o.ID, o.Loc, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("Delete(%d) not found", o.ID)
			}
			tree = next
			continue
		}
		kept = append(kept, o)
	}
	if err := tree.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 6; trial++ {
		k := []int{1, 3, 8}[rng.Intn(3)]
		alpha := []float64{0.2, 0.5, 0.8}[rng.Intn(3)]
		q := genQuery(rng, 30, 5)
		want, err := baseline.Naive(kept, q, k, alpha, tree.MaxD(), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.RSTkNN(tree, q, core.Options{K: k, Alpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		if !idsEqual(got.Results, want) {
			t.Fatalf("trial %d (k=%d alpha=%g): got %v, want %v",
				trial, k, alpha, got.Results, want)
		}
	}
}
