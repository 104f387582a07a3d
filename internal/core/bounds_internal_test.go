package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rstknn/internal/geom"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// White-box tests of the contribution-list machinery. These avoid the
// baseline package (which imports core) by computing the oracle locally.

func wbObjects(rng *rand.Rand, n int) []iurtree.Object {
	objs := make([]iurtree.Object, n)
	for i := range objs {
		m := make(map[vector.TermID]float64)
		for j := 0; j < 1+rng.Intn(4); j++ {
			m[vector.TermID(rng.Intn(20))] = 0.5 + rng.Float64()*2
		}
		objs[i] = iurtree.Object{
			ID:  int32(i),
			Loc: geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			Doc: vector.New(m),
		}
	}
	return objs
}

// wbKth computes object i's k-th NN similarity exhaustively.
func wbKth(sc *Scorer, objs []iurtree.Object, i, k int) float64 {
	if len(objs)-1 < k {
		return negInf
	}
	sims := make([]float64, 0, len(objs)-1)
	for j := range objs {
		if j == i {
			continue
		}
		sims = append(sims, sc.Exact(objs[i].Loc, objs[i].Doc, objs[j].Loc, objs[j].Doc))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(sims)))
	return sims[k-1]
}

// TestKNNBoundsBracketTruth verifies the core guarantee behind both
// pruning rules: the (kNNL, kNNU) derived from a seed contribution list of
// the root's children brackets the true k-th NN similarity of every
// object in each child's subtree.
func TestKNNBoundsBracketTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		objs := wbObjects(rng, 100+rng.Intn(100))
		tree, err := iurtree.Build(objs, iurtree.Config{Store: storage.NewStore()})
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(6)
		sc := NewScorer(0.5, tree.MaxD(), nil)
		truth := make([]float64, len(objs))
		for i := range objs {
			truth[i] = wbKth(sc, objs, i, k)
		}

		rootNode, err := tree.ReadNodeTracked(tree.RootEntry().Child, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rootNode.Leaf {
			continue // single-node tree: no node-granularity bounds to test
		}
		for i := range rootNode.Entries {
			e := &rootNode.Entries[i]
			var cl contributionList
			cl.self = sc.selfParts(e, -1, e.Env, e.Count)
			for j := range rootNode.Entries {
				if j == i {
					continue
				}
				cl.contributors = append(cl.contributors, contributor{
					entry: rootNode.Entries[j],
					parts: sc.entryBounds(sideOf(e), &rootNode.Entries[j]),
				})
			}
			knnl, knnu := cl.knnBounds(k)
			if err := wbCheckSubtree(tree, e, truth, knnl, knnu); err != nil {
				t.Fatalf("trial %d entry %d: %v", trial, i, err)
			}
		}
	}
}

func wbCheckSubtree(tree *iurtree.Snapshot, e *iurtree.Entry, truth []float64, knnl, knnu float64) error {
	if e.IsObject() {
		kth := truth[e.ObjID]
		if kth < knnl-1e-9 {
			return fmt.Errorf("object %d: kth %g < kNNL %g", e.ObjID, kth, knnl)
		}
		if kth > knnu+1e-9 {
			return fmt.Errorf("object %d: kth %g > kNNU %g", e.ObjID, kth, knnu)
		}
		return nil
	}
	n, err := tree.ReadNodeTracked(e.Child, nil)
	if err != nil {
		return err
	}
	for i := range n.Entries {
		if err := wbCheckSubtree(tree, &n.Entries[i], truth, knnl, knnu); err != nil {
			return err
		}
	}
	return nil
}

func TestKNNBoundsFewerThanK(t *testing.T) {
	var cl contributionList
	cl.self = []part{{lo: 0.3, hi: 0.8, count: 2}}
	cl.contributors = []contributor{{parts: []part{{lo: 0.1, hi: 0.9, count: 3}}}}
	// Total neighbors = 5; asking for the 6th must signal "no such
	// neighbor" with -Inf bounds.
	knnl, knnu := cl.knnBounds(6)
	if knnl != negInf || knnu != negInf {
		t.Errorf("bounds = %g, %g; want -Inf, -Inf", knnl, knnu)
	}
	knnl, knnu = cl.knnBounds(5)
	if knnl != 0.1 || knnu != 0.8 {
		t.Errorf("k=5 bounds = %g, %g; want 0.1, 0.8", knnl, knnu)
	}
}

func TestKNNBoundsAccumulation(t *testing.T) {
	// Three parts with known ordering; verify the k-th accumulation for
	// every k.
	var cl contributionList
	cl.contributors = []contributor{
		{parts: []part{{lo: 0.9, hi: 0.95, count: 1}}},
		{parts: []part{{lo: 0.5, hi: 0.7, count: 2}}},
		{parts: []part{{lo: 0.2, hi: 0.3, count: 3}}},
	}
	wantL := []float64{0.9, 0.5, 0.5, 0.2, 0.2, 0.2}
	wantU := []float64{0.95, 0.7, 0.7, 0.3, 0.3, 0.3}
	for k := 1; k <= 6; k++ {
		knnl, knnu := cl.knnBounds(k)
		if knnl != wantL[k-1] || knnu != wantU[k-1] {
			t.Errorf("k=%d: bounds (%g, %g), want (%g, %g)", k, knnl, knnu, wantL[k-1], wantU[k-1])
		}
	}
}

func TestKNNBoundsSkipsZeroCountParts(t *testing.T) {
	var cl contributionList
	cl.contributors = []contributor{
		{parts: []part{{lo: 0.99, hi: 0.99, count: 0}}},
		{parts: []part{{lo: 0.4, hi: 0.6, count: 1}}},
	}
	knnl, knnu := cl.knnBounds(1)
	if knnl != 0.4 || knnu != 0.6 {
		t.Errorf("zero-count part leaked into bounds: (%g, %g)", knnl, knnu)
	}
}

func TestRefinableStrategySelection(t *testing.T) {
	node := func(hi float64, clusters []iurtree.ClusterSummary) contributor {
		return contributor{
			entry: iurtree.Entry{Child: 1, Count: 5, Clusters: clusters},
			parts: []part{{lo: 0, hi: hi, count: 5}},
		}
	}
	object := func(hi float64) contributor {
		return contributor{
			entry: iurtree.Entry{Child: storage.InvalidNode, Count: 1},
			parts: []part{{lo: hi, hi: hi, count: 1}},
		}
	}
	var cl contributionList
	cl.contributors = []contributor{
		object(0.99), // objects are never refinable
		node(0.5, []iurtree.ClusterSummary{{Cluster: 0, Count: 5}}),                         // pure: entropy 0
		node(0.3, []iurtree.ClusterSummary{{Cluster: 0, Count: 2}, {Cluster: 1, Count: 3}}), // mixed
	}
	if got := cl.refinable(RefineByMaxUpper, 2, 0); got != 1 {
		t.Errorf("max-upper picked %d, want 1 (hi=0.5)", got)
	}
	if got := cl.refinable(RefineByEntropy, 2, 0); got != 2 {
		t.Errorf("entropy picked %d, want 2 (mixed clusters)", got)
	}
	// All objects -> nothing refinable.
	cl.contributors = []contributor{object(0.1), object(0.2)}
	if got := cl.refinable(RefineByMaxUpper, 2, 0); got != -1 {
		t.Errorf("refinable over objects = %d, want -1", got)
	}
}

func TestReplacePreservesOthers(t *testing.T) {
	var cl contributionList
	mk := func(id int32) contributor {
		return contributor{entry: iurtree.Entry{ObjID: id, Child: storage.InvalidNode}}
	}
	cl.contributors = []contributor{mk(0), mk(1), mk(2)}
	cl.replace(nil, 1, []contributor{mk(10), mk(11)})
	ids := map[int32]bool{}
	for _, c := range cl.contributors {
		ids[c.entry.ObjID] = true
	}
	if len(cl.contributors) != 4 || !ids[0] || !ids[2] || !ids[10] || !ids[11] || ids[1] {
		t.Errorf("replace result: %v", ids)
	}
}

func TestSelfPartCounts(t *testing.T) {
	sc := NewScorer(0.5, 100, nil)
	obj := iurtree.Entry{Child: storage.InvalidNode, Count: 1}
	if ps := sc.selfParts(&obj, -1, obj.Env, 1); len(ps) != 0 {
		t.Errorf("object self parts = %v", ps)
	}
	env := vector.Exact(vector.New(map[vector.TermID]float64{1: 1}))
	node := iurtree.Entry{
		Child: 3, Count: 7,
		Rect: geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 3, Y: 4}},
		Env:  env,
	}
	ps := sc.selfParts(&node, -1, node.Env, node.Count)
	if len(ps) != 1 {
		t.Fatalf("self parts = %v", ps)
	}
	p := ps[0]
	if p.count != 6 {
		t.Errorf("self part count = %d, want 6", p.count)
	}
	// Spatial component of lo: 1 - diagonal/maxD = 1 - 5/100 = 0.95.
	wantLo := 0.5*0.95 + 0.5*1 - boundsPad // identical docs: text bounds collapse to 1
	if diff := p.lo - wantLo; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("self lo = %g, want %g", p.lo, wantLo)
	}
	if p.hi < 1-1e-9 {
		t.Errorf("self hi = %g, want ~1", p.hi)
	}
}

func TestScorerCounts(t *testing.T) {
	sc := NewScorer(0.5, 100, nil)
	a := iurtree.Entry{Child: storage.InvalidNode, Count: 1,
		Rect: geom.Point{X: 1, Y: 1}.Rect(),
		Env:  vector.Exact(vector.New(map[vector.TermID]float64{1: 1}))}
	q := Query{Loc: geom.Point{X: 2, Y: 2}, Doc: vector.New(map[vector.TermID]float64{1: 1})}
	sc.ExactEntryQuery(&a, &q)
	if sc.ExactCount != 1 {
		t.Errorf("ExactCount = %d", sc.ExactCount)
	}
	node := iurtree.Entry{Child: 5, Count: 3,
		Rect: geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 9, Y: 9}},
		Env:  a.Env}
	sc.queryBounds(sideOf(&node), &q)
	if sc.BoundCount != 1 {
		t.Errorf("BoundCount = %d", sc.BoundCount)
	}
}

func TestNewScorerDefaults(t *testing.T) {
	sc := NewScorer(0.5, 0, nil)
	if sc.MaxD != 1 {
		t.Errorf("MaxD defaulted to %g, want 1", sc.MaxD)
	}
	if sc.Sim == nil || sc.Sim.Name() != "ej" {
		t.Error("Sim should default to Extended Jaccard")
	}
}

// TestKthSelectorAgainstSort is the property test for the streaming
// weighted k-th selection: expanding the weighted multiset and sorting
// must give the same k-th largest value.
func TestKthSelectorAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 400; trial++ {
		k := 1 + rng.Intn(20)
		var sel kthSelector
		sel.reset(k)
		var expanded []float64
		n := rng.Intn(30)
		for i := 0; i < n; i++ {
			val := rng.Float64()
			count := int32(1 + rng.Intn(5))
			sel.add(val, count)
			for c := int32(0); c < count; c++ {
				expanded = append(expanded, val)
			}
		}
		want := negInf
		if len(expanded) >= k {
			sort.Sort(sort.Reverse(sort.Float64Slice(expanded)))
			want = expanded[k-1]
		}
		if got := sel.kth(); got != want {
			t.Fatalf("trial %d (k=%d, %d values): kth = %g, want %g",
				trial, k, len(expanded), got, want)
		}
	}
}

// TestKthSelectorReuse checks reset really clears state between uses.
func TestKthSelectorReuse(t *testing.T) {
	var sel kthSelector
	sel.reset(2)
	sel.add(0.9, 1)
	sel.add(0.8, 1)
	if got := sel.kth(); got != 0.8 {
		t.Fatalf("first use: %g", got)
	}
	sel.reset(1)
	sel.add(0.5, 3)
	if got := sel.kth(); got != 0.5 {
		t.Fatalf("after reset: %g", got)
	}
	sel.reset(5)
	if got := sel.kth(); got != negInf {
		t.Fatalf("empty selector: %g", got)
	}
}
