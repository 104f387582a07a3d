package iurtree

import (
	"math/rand"
	"testing"

	"rstknn/internal/cluster"
	"rstknn/internal/geom"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

func randObjects(rng *rand.Rand, n, vocab int) []Object {
	objs := make([]Object, n)
	for i := range objs {
		m := make(map[vector.TermID]float64)
		for j := 0; j < 1+rng.Intn(5); j++ {
			m[vector.TermID(rng.Intn(vocab))] = 0.5 + rng.Float64()*3
		}
		objs[i] = Object{
			ID:  int32(i),
			Loc: geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			Doc: vector.New(m),
		}
	}
	return objs
}

func buildIUR(t *testing.T, objs []Object, incremental bool) *Snapshot {
	t.Helper()
	tr, err := Build(objs, Config{
		Store:       storage.NewStore(),
		Incremental: incremental,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Config{}); err == nil {
		t.Error("missing store should fail")
	}
	objs := []Object{{ID: 1}, {ID: 1}}
	if _, err := Build(objs, Config{Store: storage.NewStore()}); err == nil {
		t.Error("duplicate IDs should fail")
	}
	a := &cluster.Assignment{Clusters: 1, Of: []int{0}}
	if _, err := Build(objs, Config{Store: storage.NewStore(), Clustering: a}); err == nil {
		t.Error("clustering size mismatch should fail")
	}
}

func TestBuildEmptyAndTiny(t *testing.T) {
	tr := buildIUR(t, nil, false)
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if tr.MaxD() <= 0 {
		t.Error("MaxD must be positive even for empty trees")
	}

	one := []Object{{ID: 42, Loc: geom.Point{X: 1, Y: 2},
		Doc: vector.New(map[vector.TermID]float64{3: 1})}}
	tr = buildIUR(t, one, false)
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
	root := tr.RootEntry()
	if root.Count != 1 {
		t.Errorf("root count = %d", root.Count)
	}
	n, err := tr.ReadNodeTracked(tr.RootID(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Leaf || len(n.Entries) != 1 || n.Entries[0].ObjID != 42 {
		t.Errorf("unexpected root node: %+v", n)
	}
	if !n.Entries[0].IsObject() {
		t.Error("leaf entry should be an object entry")
	}
	if n.Entries[0].Loc() != (geom.Point{X: 1, Y: 2}) {
		t.Errorf("Loc = %v", n.Entries[0].Loc())
	}
	if !n.Entries[0].Doc().Equal(one[0].Doc) {
		t.Errorf("Doc = %v", n.Entries[0].Doc())
	}
}

func TestInvariantsBulkAndIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	objs := randObjects(rng, 700, 40)
	for _, incremental := range []bool{false, true} {
		tr := buildIUR(t, objs, incremental)
		if tr.Len() != 700 {
			t.Fatalf("Len = %d", tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("incremental=%v: %v", incremental, err)
		}
		if tr.Clustered() {
			t.Error("plain build should not be clustered")
		}
	}
}

func TestRootEntrySummarizesCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	objs := randObjects(rng, 300, 25)
	tr := buildIUR(t, objs, false)
	root := tr.RootEntry()
	if int(root.Count) != len(objs) {
		t.Errorf("root count = %d", root.Count)
	}
	// The root union vector must dominate every document; the root
	// intersection vector must be dominated by every document.
	for _, o := range objs {
		if !root.Rect.Contains(o.Loc) {
			t.Fatalf("object %d outside root MBR", o.ID)
		}
		if !o.Doc.DominatedBy(root.Env.Uni) {
			t.Fatalf("object %d doc not dominated by root union", o.ID)
		}
		if !root.Env.Int.DominatedBy(o.Doc) {
			t.Fatalf("root intersection not dominated by object %d doc", o.ID)
		}
	}
	if tr.MaxD() != tr.Space().Diagonal() {
		t.Errorf("MaxD = %g, want space diagonal %g", tr.MaxD(), tr.Space().Diagonal())
	}
}

func TestCIURTreeClusterSummaries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	objs := randObjects(rng, 400, 30)
	docs := make([]vector.Vector, len(objs))
	for i, o := range objs {
		docs[i] = o.Doc
	}
	asg := cluster.Run(docs, cluster.Config{K: 5, Seed: 1})
	tr, err := Build(objs, Config{Store: storage.NewStore(), Clustering: asg})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Clustered() || tr.NumClusters() != asg.Clusters {
		t.Fatalf("NumClusters = %d, want %d", tr.NumClusters(), asg.Clusters)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Root histogram must equal the assignment's sizes.
	root := tr.RootEntry()
	counts := root.ClusterCounts(tr.NumClusters())
	want := asg.Sizes()
	for c := range want {
		if counts[c] != want[c] {
			t.Errorf("cluster %d: root count %d, assignment %d", c, counts[c], want[c])
		}
	}
	// Per-cluster envelopes must contain the member documents.
	byCluster := make(map[int32]vector.Envelope)
	for _, cs := range root.Clusters {
		byCluster[cs.Cluster] = cs.Env
	}
	for i, o := range objs {
		env, ok := byCluster[int32(asg.Of[i])]
		if !ok {
			t.Fatalf("cluster %d missing from root", asg.Of[i])
		}
		if !env.Contains(o.Doc) {
			t.Fatalf("object %d doc outside its cluster envelope", o.ID)
		}
	}
}

func TestWalkVisitsAllObjects(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	objs := randObjects(rng, 250, 20)
	tr := buildIUR(t, objs, false)
	seen := make(map[int32]bool)
	maxDepth := 0
	err := tr.Walk(func(n *Node, depth int) error {
		if depth > maxDepth {
			maxDepth = depth
		}
		if n.Leaf {
			for _, e := range n.Entries {
				seen[e.ObjID] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(objs) {
		t.Errorf("walk saw %d objects, want %d", len(seen), len(objs))
	}
	if maxDepth+1 != tr.Height() {
		t.Errorf("max depth %d inconsistent with height %d", maxDepth, tr.Height())
	}
}

func TestReadNodeChargesIO(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	objs := randObjects(rng, 200, 20)
	store := storage.NewStore()
	tr, err := Build(objs, Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	store.ResetStats()
	if _, err := tr.ReadNodeTracked(tr.RootID(), nil); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Reads != 1 || st.PagesRead < 1 {
		t.Errorf("stats after one read: %+v", st)
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	objs := randObjects(rng, 150, 20)
	store := storage.NewStore()
	docs := make([]vector.Vector, len(objs))
	for i, o := range objs {
		docs[i] = o.Doc
	}
	asg := cluster.Run(docs, cluster.Config{K: 3, Seed: 2})
	tr, err := Build(objs, Config{Store: store, Clustering: asg})
	if err != nil {
		t.Fatal(err)
	}
	headerID := tr.Save()
	got, err := Open(store, headerID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() || got.Height() != tr.Height() ||
		got.RootID() != tr.RootID() || got.MaxD() != tr.MaxD() ||
		got.NumClusters() != tr.NumClusters() || got.Space() != tr.Space() {
		t.Errorf("reopened tree differs: %+v vs %+v", got, tr)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestOpenErrors(t *testing.T) {
	store := storage.NewStore()
	if _, err := Open(store, 0); err == nil {
		t.Error("open of missing blob should fail")
	}
	junk := store.Put([]byte("this is not a tree header, definitely"))
	if _, err := Open(store, junk); err == nil {
		t.Error("open of junk should fail")
	}
}

func TestNodeEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := &Node{Leaf: rng.Intn(2) == 0}
		count := rng.Intn(6)
		for i := 0; i < count; i++ {
			e := Entry{
				Rect: geom.Rect{
					Min: geom.Point{X: rng.Float64(), Y: rng.Float64()},
					Max: geom.Point{X: 1 + rng.Float64(), Y: 1 + rng.Float64()},
				},
				Child: storage.NodeID(rng.Intn(100)),
				ObjID: int32(rng.Intn(1000)),
				Count: int32(1 + rng.Intn(50)),
			}
			intv := randDoc(rng)
			e.Env = vector.Envelope{Int: intv, Uni: intv.Max(randDoc(rng))}
			if rng.Intn(2) == 0 {
				e.Clusters = []ClusterSummary{
					{Cluster: 0, Count: e.Count - 1, Env: e.Env},
					{Cluster: 3, Count: 1, Env: vector.Exact(randDoc(rng))},
				}
			}
			n.Entries = append(n.Entries, e)
		}
		blob := encodeNode(n)
		got, err := decodeNode(blob)
		if err != nil {
			t.Fatal(err)
		}
		if got.Leaf != n.Leaf || len(got.Entries) != len(n.Entries) {
			t.Fatalf("shape mismatch")
		}
		for i := range n.Entries {
			a, b := &n.Entries[i], &got.Entries[i]
			if a.Rect != b.Rect || a.Child != b.Child || a.ObjID != b.ObjID || a.Count != b.Count {
				t.Fatalf("entry %d header mismatch", i)
			}
			if !a.Env.Int.Equal(b.Env.Int) || !a.Env.Uni.Equal(b.Env.Uni) {
				t.Fatalf("entry %d envelope mismatch", i)
			}
			if len(a.Clusters) != len(b.Clusters) {
				t.Fatalf("entry %d cluster count mismatch", i)
			}
			for j := range a.Clusters {
				if a.Clusters[j].Cluster != b.Clusters[j].Cluster ||
					a.Clusters[j].Count != b.Clusters[j].Count {
					t.Fatalf("entry %d cluster %d mismatch", i, j)
				}
			}
		}
	}
}

func randDoc(rng *rand.Rand) vector.Vector {
	m := make(map[vector.TermID]float64)
	for j := 0; j < 1+rng.Intn(4); j++ {
		m[vector.TermID(rng.Intn(20))] = 0.5 + rng.Float64()
	}
	return vector.New(m)
}

func TestDecodeNodeErrors(t *testing.T) {
	if _, err := decodeNode(nil); err == nil {
		t.Error("nil blob should fail")
	}
	if _, err := decodeNode([]byte{1, 5, 0}); err == nil {
		t.Error("blob promising 5 entries with no data should fail")
	}
	n := &Node{Leaf: true, Entries: []Entry{{
		Rect:  geom.Point{X: 1, Y: 1}.Rect(),
		Child: storage.InvalidNode,
		ObjID: 1, Count: 1,
		Env: vector.Exact(vector.New(map[vector.TermID]float64{1: 1})),
	}}}
	blob := encodeNode(n)
	if _, err := decodeNode(blob[:len(blob)-3]); err == nil {
		t.Error("truncated blob should fail")
	}
	if _, err := decodeNode(append(blob, 0)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

func TestClusterCounts(t *testing.T) {
	e := Entry{Clusters: []ClusterSummary{{Cluster: 0, Count: 3}, {Cluster: 2, Count: 1}}}
	got := e.ClusterCounts(4)
	if got[0] != 3 || got[1] != 0 || got[2] != 1 || got[3] != 0 {
		t.Errorf("ClusterCounts = %v", got)
	}
	var plain Entry
	if plain.ClusterCounts(4) != nil {
		t.Error("unclustered entry should return nil")
	}
}
