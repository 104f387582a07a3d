package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"rstknn/internal/cluster"
	"rstknn/internal/dataset"
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
	root, err := tree.ReadSharedTracked(tree.RootEntry().Child, nil)
	if err != nil {
		t.Fatal(err)
	}
	if root.Leaf {
		t.Fatal("fixture tree is a single leaf; grow it")
	}
	entries := append([]iurtree.Entry(nil), root.Entries...)
	n := root
	for !n.Leaf {
		if n, err = tree.ReadSharedTracked(n.Entries[0].Child, nil); err != nil {
			t.Fatal(err)
		}
	}
	return NewScorer(0.5, tree.MaxD(), nil), append(entries, n.Entries...)
}

// boundsInto bounds x against side a in a one-contributor pass.
func boundsInto(s *Scorer, sc *scratch, a side, x *iurtree.Entry) []part {
	sc.kern.Load(a.env.Uni)
	defer sc.kern.Clear()
	return s.entryBoundsInto(sc, a, x)
}

func TestBoundEvaluationWarmAllocFree(t *testing.T) {
	s, entries := boundFixture(t)
	sc := getScratch()
	defer sc.release()
	eval := func() {
		for i := range entries {
			a := &entries[i]
			sc.kern.Load(a.Env.Uni)
			for j := range entries {
				s.entryBoundsInto(sc, sideOf(a), &entries[j])
			}
			sc.kern.Clear()
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

// TestBoundPassChecksItsSide pins the kernel contract of
// entryBoundsInto: a pass whose side was never scattered, or whose
// kernel holds another side, panics instead of returning bounds built
// from the wrong union product.
func TestBoundPassChecksItsSide(t *testing.T) {
	s, entries := boundFixture(t)
	sc := getScratch()
	defer sc.release()
	a, other := &entries[0], &entries[1]
	mustPanic := func(what string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("entryBoundsInto with %s did not panic", what)
			}
		}()
		s.entryBoundsInto(sc, sideOf(a), &entries[2])
	}
	mustPanic("no side scattered")
	sc.kern.Load(other.Env.Uni)
	mustPanic("another side scattered")
	sc.kern.Clear()
}

func TestKNNBoundsWarmAllocFree(t *testing.T) {
	s, entries := boundFixture(t)
	sc := getScratch()
	defer sc.release()
	a := &entries[0]
	cl := contributionList{self: s.selfPartsInto(sc, a, -1, a.Env, a.Count)}
	for j := 1; j < len(entries); j++ {
		cl.contributors = append(cl.contributors, contributor{
			entry: &entries[j],
			parts: boundsInto(s, sc, sideOf(a), &entries[j]),
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

// TestRuleCountsWarmAllocFree pins the counting decision path: the full
// count at the start of decideGroup, the per-refinement upkeep inside
// replace, and the two rule reads.
func TestRuleCountsWarmAllocFree(t *testing.T) {
	s, entries := boundFixture(t)
	sc := getScratch()
	defer sc.release()
	a := &entries[0]
	cl := contributionList{self: s.selfPartsInto(sc, a, -1, a.Env, a.Count)}
	for j := 1; j < len(entries); j++ {
		cl.contributors = append(cl.contributors, contributor{
			entry: &entries[j],
			parts: boundsInto(s, sc, sideOf(a), &entries[j]),
		})
	}
	// Replacing a contributor by itself keeps the list's size, so every
	// pass does the same work.
	repl := []contributor{cl.contributors[0]}
	q := interval{lo: 0.3, hi: 0.6}
	var sink int
	check := func() {
		rc := cl.ruleCounts(q)
		cl.replace(sc, 0, repl, &rc)
		if rc.prunes(10) || rc.reports(10) {
			sink++
		}
	}
	if allocs := testing.AllocsPerRun(100, check); allocs != 0 {
		t.Errorf("warm ruleCounts/replace allocate %v per pruning check, want 0", allocs)
	}
	_ = sink
}

func TestRefinableEntropyWarmAllocFree(t *testing.T) {
	s, entries := boundFixture(t)
	sc := getScratch()
	defer sc.release()
	a := &entries[0]
	var cl contributionList
	for j := 1; j < len(entries); j++ {
		cl.contributors = append(cl.contributors, contributor{
			entry: &entries[j],
			parts: boundsInto(s, sc, sideOf(a), &entries[j]),
			stale: true,
		})
	}
	const numClusters = 4
	pick := func() { cl.refinableByEntropy(sc, numClusters, negInf) }
	pick() // warm pass: the scratch histogram grows to the cluster count
	if allocs := testing.AllocsPerRun(100, pick); allocs != 0 {
		t.Errorf("warm refinable(RefineByEntropy) allocates %v per call, want 0", allocs)
	}
}

// Clusters in first-seen order must give the ascending-ID entropy. For
// these counts, summing in first-seen order (3, 1, 1, 1) rounds
// differently from ascending-ID order (1, 1, 1, 3).
func TestClusterEntropyAscendingOrder(t *testing.T) {
	e := &iurtree.Entry{Child: 1, Clusters: []iurtree.ClusterSummary{
		{Cluster: 3, Count: 3}, {Cluster: 0, Count: 1}, {Cluster: 2, Count: 1}, {Cluster: 1, Count: 1},
	}}
	hist := make([]int, 4)
	want := cluster.Entropy(e.ClusterCounts(4))
	if got := clusterEntropy(e, hist); got != want { //rstknn:allow floatcmp bit-identical to the histogram form by construction
		t.Errorf("clusterEntropy = %v, want %v", got, want)
	}
	for i, c := range hist {
		if c != 0 {
			t.Errorf("hist[%d] = %d after clusterEntropy, want it zeroed", i, c)
		}
	}
}

// chunkSet identifies an arena's chunks by their backing arrays.
func chunkSet[T any](a *arena[T]) map[*T]int {
	m := map[*T]int{}
	for _, c := range a.spare {
		m[unsafe.SliceData(c[:cap(c)])] = cap(c)
	}
	return m
}

// TestArenaRerunGrowsNoChunk runs one query of the pinned workload (GN,
// 2,500 objects, seed 7) on a fresh scratch, then re-runs it on the same
// scratch: the warm re-run must reuse every chunk and allocate none, in
// every arena.
func TestArenaRerunGrowsNoChunk(t *testing.T) {
	col := dataset.Generate(dataset.GN, dataset.Params{N: 2500, Seed: 7})
	tree, err := iurtree.Build(col.Objects, iurtree.Config{Store: storage.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	queries := col.Queries(16, 8)
	for _, qi := range []int{4, 6, 9} { // the three heaviest queries
		q := Query{Loc: queries[qi].Loc, Doc: queries[qi].Doc}
		sc := newScratch()
		run := func() {
			s := &searcher{tree: tree, opt: Options{K: 10, Alpha: 0.5, Workers: 1}, q: q}
			w := s.newWorker()
			w.scratch.release()
			w.scratch = sc
			frontier, err := s.seed(w)
			if err == nil {
				err = runRounds([]*worker{w}, frontier)
			}
			if err != nil {
				t.Fatal(err)
			}
			sc.reset()
		}
		run()
		parts, contribs := chunkSet(&sc.parts), chunkSet(&sc.contribs)
		run()
		if !sameChunks(parts, chunkSet(&sc.parts)) || !sameChunks(contribs, chunkSet(&sc.contribs)) {
			t.Errorf("query %d: re-run changed the arena chunks: parts %d → %d, contribs %d → %d",
				qi, len(parts), len(sc.parts.spare), len(contribs), len(sc.contribs.spare))
		}
	}
}

// sameChunks reports whether two chunk sets hold the same backing arrays.
func sameChunks[T any](a, b map[*T]int) bool {
	if len(a) != len(b) {
		return false
	}
	for p, n := range a {
		if b[p] != n {
			return false
		}
	}
	return true
}

// A contributor references its entry; embedding the 184-byte Entry again
// would multiply the memory and copying of every contribution list.
func TestContributorSize(t *testing.T) {
	if n := unsafe.Sizeof(contributor{}); n > 40 {
		t.Errorf("contributor is %d bytes, want at most 40", n)
	}
}
