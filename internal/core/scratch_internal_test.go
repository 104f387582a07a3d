package core

import (
	"math/rand"
	"testing"

	"rstknn/internal/cluster"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// Warm scratch state must make the scoring hot path allocation-free:
// selectors reuse their heap storage across pruning checks and arenas
// recycle their chunks across queries. These tests pin that property.

func TestKthSelectorWarmReuseAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]float64, 64)
	counts := make([]int32, 64)
	for i := range vals {
		vals[i] = rng.Float64()
		counts[i] = int32(1 + rng.Intn(4))
	}
	sc := getScratch()
	defer sc.release()
	// Warm pass grows the selector heaps to steady-state capacity.
	sel := &sc.selLo
	sel.reset(10)
	for i := range vals {
		sel.add(vals[i], counts[i])
	}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sel.reset(10)
		for i := range vals {
			sel.add(vals[i], counts[i])
		}
		sink += sel.kth()
	})
	if allocs != 0 {
		t.Errorf("warm kthSelector allocates %v per selection, want 0", allocs)
	}
	_ = sink
}

func TestArenaWarmReuseAllocFree(t *testing.T) {
	sc := getScratch()
	defer sc.release()
	carve := func() {
		for i := 0; i < 32; i++ {
			p := allocParts(sc, 16)
			_ = append(p, part{})
			c := allocContribs(sc, 4, 4)
			_ = append(c, contributor{})
		}
	}
	// Warm pass makes the arenas grow their chunks once.
	carve()
	sc.parts.reset()
	sc.contribs.reset()
	allocs := testing.AllocsPerRun(50, func() {
		carve()
		sc.parts.reset()
		sc.contribs.reset()
	})
	if allocs != 0 {
		t.Errorf("warm arena carving allocates %v per query, want 0", allocs)
	}
}

// boundFixture returns the entries of a small CIUR-tree — the root's
// children (internal, multi-cluster) and one leaf's object entries — so
// the bound roots below run every branch: exact object pairs, per-cluster
// parts, and whole-entry envelopes.
func boundFixture(t *testing.T) (*Scorer, []iurtree.Entry) {
	t.Helper()
	objs := wbObjects(rand.New(rand.NewSource(17)), 300)
	docs := make([]vector.Vector, len(objs))
	for i := range objs {
		docs[i] = objs[i].Doc
	}
	tree, err := iurtree.Build(objs, iurtree.Config{
		Store:      storage.NewStore(),
		Clustering: cluster.Run(docs, cluster.Config{K: 4, Seed: 7}),
	})
	if err != nil {
		t.Fatal(err)
	}
	root, err := tree.ReadNodeTracked(tree.RootEntry().Child, nil)
	if err != nil {
		t.Fatal(err)
	}
	if root.Leaf {
		t.Fatal("fixture tree is a single leaf; grow it")
	}
	entries := append([]iurtree.Entry(nil), root.Entries...)
	n := root
	for !n.Leaf {
		if n, err = tree.ReadNodeTracked(n.Entries[0].Child, nil); err != nil {
			t.Fatal(err)
		}
	}
	return NewScorer(0.5, tree.MaxD(), nil), append(entries, n.Entries...)
}

func TestBoundEvaluationWarmAllocFree(t *testing.T) {
	s, entries := boundFixture(t)
	sc := getScratch()
	defer sc.release()
	eval := func() {
		for i := range entries {
			a := &entries[i]
			for j := range entries {
				s.entryBoundsInto(sc, sideOf(a), &entries[j])
			}
			s.selfPartsInto(sc, a, -1, a.Env, a.Count)
			for c := range a.Clusters {
				cs := &a.Clusters[c]
				s.selfPartsInto(sc, a, cs.Cluster, cs.Env, cs.Count)
			}
		}
		sc.parts.reset()
	}
	eval() // warm pass: the parts arena grows its chunks once
	if allocs := testing.AllocsPerRun(50, eval); allocs != 0 {
		t.Errorf("warm entryBoundsInto/selfPartsInto allocate %v per pass, want 0", allocs)
	}
}

func TestKNNBoundsWarmAllocFree(t *testing.T) {
	s, entries := boundFixture(t)
	sc := getScratch()
	defer sc.release()
	a := &entries[0]
	cl := contributionList{self: s.selfPartsInto(sc, a, -1, a.Env, a.Count)}
	for j := 1; j < len(entries); j++ {
		cl.contributors = append(cl.contributors, contributor{
			entry: entries[j],
			parts: s.entryBoundsInto(sc, sideOf(a), &entries[j]),
		})
	}
	lo, hi := &sc.selLo, &sc.selHi
	var sink float64
	check := func() {
		lo.reset(10)
		hi.reset(10)
		cl.knnBoundsInto(lo, hi)
		sink += lo.kth() + hi.kth()
	}
	check() // warm pass: the selector heaps reach steady-state capacity
	if allocs := testing.AllocsPerRun(100, check); allocs != 0 {
		t.Errorf("warm knnBoundsInto allocates %v per pruning check, want 0", allocs)
	}
	_ = sink
}
