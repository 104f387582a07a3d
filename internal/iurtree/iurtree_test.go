package iurtree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
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

// buildIUR bulk-loads objs, or grows the tree from empty by one Insert
// per object when incremental is set.
func buildIUR(t *testing.T, objs []Object, incremental bool) *Snapshot {
	t.Helper()
	if incremental {
		tr, _ := growIUR(t, storage.NewStore(), objs)
		return tr
	}
	tr, err := Build(objs, Config{Store: storage.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// growIUR grows an IUR-tree on store from empty by one Insert per
// object, the path live updates take. Retired nodes go through the
// returned reclaimer, whose on-free hook drops them from the bound cache
// before a later insert recycles their IDs.
func growIUR(t *testing.T, store storage.Blobs, objs []Object) (*Snapshot, *storage.Reclaimer) {
	t.Helper()
	tr, err := Build(nil, Config{Store: store})
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
	return tr, rec
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
	if err := tr.CheckInvariants(nil); err != nil {
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
	n, err := tr.ReadSharedTracked(tr.RootID(), nil)
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

// TestInvariantsBulkAndIncremental builds the same 1,000 objects by STR
// packing and by one live Insert per object. Beyond CheckInvariants,
// every node must hold at most maxFanout entries, every non-root node at
// least one (minFill when grown by inserts alone), and every object must
// sit in exactly one leaf.
func TestInvariantsBulkAndIncremental(t *testing.T) {
	const n = 1000
	rng := rand.New(rand.NewSource(1))
	objs := randObjects(rng, n, 40)
	for _, incremental := range []bool{false, true} {
		tr := buildIUR(t, objs, incremental)
		if tr.Len() != n {
			t.Fatalf("Len = %d", tr.Len())
		}
		if err := tr.CheckInvariants(nil); err != nil {
			t.Fatalf("incremental=%v: %v", incremental, err)
		}
		if tr.Clustered() {
			t.Error("plain build should not be clustered")
		}
		seen := make(map[int32]int, n)
		err := tr.Walk(nil, func(nd *Node, depth int) error {
			if len(nd.Entries) > maxFanout {
				t.Errorf("incremental=%v: node %d holds %d entries, capacity %d", incremental, nd.ID, len(nd.Entries), maxFanout)
			}
			if depth > 0 && len(nd.Entries) == 0 {
				t.Errorf("incremental=%v: empty non-root node %d", incremental, nd.ID)
			}
			// Without deletes, every non-root node of the grown tree
			// came out of a split with at least minFill entries.
			if incremental && depth > 0 && len(nd.Entries) < minFill {
				t.Errorf("non-root node %d holds %d entries, below minFill %d", nd.ID, len(nd.Entries), minFill)
			}
			if nd.Leaf {
				for i := range nd.Entries {
					seen[nd.Entries[i].ObjID]++
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range objs {
			if seen[o.ID] != 1 {
				t.Fatalf("incremental=%v: object %d in %d leaves", incremental, o.ID, seen[o.ID])
			}
		}
	}
}

// TestBulkLoadPacksTightly: STR packs leaves full, so a 1,000-object bulk
// build has ceil(n/maxFanout) leaves and, at fan-out 32, a height of at
// most 3.
func TestBulkLoadPacksTightly(t *testing.T) {
	const n = 1000
	objs := randObjects(rand.New(rand.NewSource(3)), n, 40)
	tr := buildIUR(t, objs, false)
	leaves := 0
	err := tr.Walk(nil, func(nd *Node, depth int) error {
		if nd.Leaf {
			leaves++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := (n + maxFanout - 1) / maxFanout; leaves != want {
		t.Errorf("bulk build has %d leaves, want %d packed full", leaves, want)
	}
	if tr.Height() > 3 {
		t.Errorf("bulk build height = %d, want <= 3", tr.Height())
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
	if err := tr.CheckInvariants(nil); err != nil {
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
	err := tr.Walk(nil, func(n *Node, depth int) error {
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
	if _, err := tr.ReadSharedTracked(tr.RootID(), nil); err != nil {
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
	headerID := store.Put(tr.Header())
	got, err := Open(store, headerID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() || got.Height() != tr.Height() ||
		got.RootID() != tr.RootID() || got.MaxD() != tr.MaxD() ||
		got.NumClusters() != tr.NumClusters() || got.Space() != tr.Space() {
		t.Errorf("reopened tree differs: %+v vs %+v", got, tr)
	}
	if err := got.CheckInvariants(nil); err != nil {
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

// headerClustersOffset is where a saved header stores numClusters: after
// the magic, the version and three int32 fields.
const headerClustersOffset = 4 + 2 + 12

// TestOpenRejectsBadNumClusters: a negative cluster count would panic
// when a query carves its per-cluster histogram, and a huge one would
// make it allocate that many counters, so Open refuses both.
func TestOpenRejectsBadNumClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	store := storage.NewStore()
	tr, err := Build(randObjects(rng, 40, 10), Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	header := tr.Header()
	if got := int32(binary.LittleEndian.Uint32(header[headerClustersOffset:])); got != 0 {
		t.Fatalf("numClusters at header offset %d reads %d, want 0", headerClustersOffset, got)
	}
	for _, bad := range []int32{-1, 1 << 20} {
		blob := append([]byte(nil), header...)
		binary.LittleEndian.PutUint32(blob[headerClustersOffset:], uint32(bad))
		if _, err := Open(store, store.Put(blob)); err == nil {
			t.Errorf("Open accepted a header with %d clusters", bad)
		}
	}
}

// TestFormatWidthLimits: the node format stores cluster-summary counts
// as u16, so a cluster count beyond that is refused up front instead of
// being silently truncated by the encoder. No check builds a tree.
func TestFormatWidthLimits(t *testing.T) {
	objs := randObjects(rand.New(rand.NewSource(10)), 3, 5)
	for _, clusters := range []int{-1, math.MaxUint16 + 1} {
		_, err := Build(objs, Config{Store: storage.NewStore(), Clustering: &cluster.Assignment{
			Clusters: clusters, Of: []int{0, 0, 0},
		}})
		if err == nil {
			t.Errorf("Build accepted a clustering with %d clusters", clusters)
		}
	}
	_, err := Build(objs, Config{Store: storage.NewStore(), Clustering: &cluster.Assignment{
		Clusters: 2, Of: []int{0, 2, 1},
	}})
	if err == nil {
		t.Error("Build accepted an object outside the clustering's range")
	}
}

// TestCheckInvariantsRejectsClusterIDRange: a summary naming a cluster
// the tree does not have would index past the per-cluster histograms.
func TestCheckInvariantsRejectsClusterIDRange(t *testing.T) {
	tr := buildReadTestTree(t, 45, true)
	if err := tr.CheckInvariants(nil); err != nil {
		t.Fatalf("pristine clustered tree: %v", err)
	}
	top := int32(0)
	for _, cs := range tr.RootEntry().Clusters {
		top = max(top, cs.Cluster)
	}
	tr.numClusters = int(top) // the highest cluster in use is now out of range
	if err := tr.CheckInvariants(nil); err == nil {
		t.Error("CheckInvariants accepted a cluster ID >= NumClusters")
	}
}

// headerMaxDOffset is where a saved header stores maxD: after the magic,
// the version, four int32 fields and the space rect.
const headerMaxDOffset = 4 + 2 + 16 + 32

// TestOpenRejectsBadMaxD corrupts the maxD bytes of a saved header: a
// zero, negative, NaN or infinite normalization distance would make
// every spatial bound wrong, so Open and CheckInvariants must refuse it.
func TestOpenRejectsBadMaxD(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	store := storage.NewStore()
	tr, err := Build(randObjects(rng, 40, 10), Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	header := tr.Header()
	if got := math.Float64frombits(binary.LittleEndian.Uint64(header[headerMaxDOffset:])); got != tr.MaxD() {
		t.Fatalf("maxD at header offset %d reads %g, want %g", headerMaxDOffset, got, tr.MaxD())
	}
	good := tr.maxD
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		blob := append([]byte(nil), header...)
		binary.LittleEndian.PutUint64(blob[headerMaxDOffset:], math.Float64bits(bad))
		if _, err := Open(store, store.Put(blob)); err == nil {
			t.Errorf("Open accepted a header with maxD %g", bad)
		}
		tr.maxD = bad
		if err := tr.CheckInvariants(nil); err == nil {
			t.Errorf("CheckInvariants accepted maxD %g", bad)
		}
	}
	tr.maxD = good
	if err := tr.CheckInvariants(nil); err != nil {
		t.Errorf("restored tree: %v", err)
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

// bulkStoreDigest builds a seeded 1,200-object STR tree (three levels at
// fan-out 32), optionally clustered, and returns SHA-256 over every
// store slot's (NodeID, blob) in ID order.
func bulkStoreDigest(t *testing.T, clustered bool) string {
	t.Helper()
	objs := randObjects(rand.New(rand.NewSource(81)), 1200, 30)
	store := storage.NewStore()
	cfg := Config{Store: store}
	if clustered {
		docs := make([]vector.Vector, len(objs))
		for i := range objs {
			docs[i] = objs[i].Doc
		}
		cfg.Clustering = cluster.Run(docs, cluster.Config{K: 5, Seed: 3})
	}
	if _, err := Build(objs, cfg); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var hdr [8]byte
	for id := 0; id < store.Len(); id++ {
		blob, err := store.GetTracked(storage.NodeID(id), nil)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(hdr[:4], uint32(id))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(blob)))
		h.Write(hdr[:])
		h.Write(blob)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBulkBuildBytesGolden pins the exact store contents of seeded IUR
// and CIUR bulk builds, NodeIDs included. The page counts of every
// experiment and the golden query counters follow from these bytes, so
// a change to STR packing or to the post-order sealing shows up here
// first.
func TestBulkBuildBytesGolden(t *testing.T) {
	for _, tc := range []struct {
		name      string
		clustered bool
		want      string
	}{
		{"IUR", false, "9e13485ef62799395ff632a7a298262286fc2b88ec80363cbe6723844132758e"},
		{"CIUR", true, "f5659615b2f998603af14ba461c8d53421f833c4c8b10444625fada9540ce8e6"},
	} {
		if got := bulkStoreDigest(t, tc.clustered); got != tc.want {
			t.Errorf("%s bulk build digest = %s, want %s", tc.name, got, tc.want)
		}
	}
}
