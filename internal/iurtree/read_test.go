package iurtree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"rstknn/internal/allocbound"
	"rstknn/internal/cluster"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

func buildReadTestTree(t *testing.T, seed int64, clustered bool) *Snapshot {
	t.Helper()
	return buildTreeOf(t, randObjects(rand.New(rand.NewSource(seed)), 250, 20), seed, clustered)
}

// buildTreeOf builds a plain or clustered (4 clusters) tree over objs.
func buildTreeOf(t *testing.T, objs []Object, seed int64, clustered bool) *Snapshot {
	t.Helper()
	cfg := Config{Store: storage.NewStore()}
	if clustered {
		docs := make([]vector.Vector, len(objs))
		for i := range objs {
			docs[i] = objs[i].Doc
		}
		cfg.Clustering = cluster.Run(docs, cluster.Config{K: 4, Seed: seed})
	}
	tr, err := Build(objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// fetchDecode is the reference the node read is checked against:
// decodeNode over the bytes store.Fetch returns for id.
func fetchDecode(store storage.Blobs, id storage.NodeID) (*Node, error) {
	blob, err := store.Fetch(id)
	if err != nil {
		return nil, err
	}
	return decodeNode(blob)
}

// sameEntry reports whether two decoded entries agree field by field.
func sameEntry(a, b *Entry) bool {
	if a.Rect != b.Rect || a.Child != b.Child || a.ObjID != b.ObjID || a.Count != b.Count ||
		!a.Env.Int.Equal(b.Env.Int) || !a.Env.Uni.Equal(b.Env.Uni) || len(a.Clusters) != len(b.Clusters) {
		return false
	}
	for j := range a.Clusters {
		x, y := &a.Clusters[j], &b.Clusters[j]
		if x.Cluster != y.Cluster || x.Count != y.Count ||
			!x.Env.Int.Equal(y.Env.Int) || !x.Env.Uni.Equal(y.Env.Uni) {
			return false
		}
	}
	return true
}

// TestSharedReadMatchesDecode walks a real tree (plain and clustered)
// reading every node through the shared read and fetchDecode: the shared
// node must equal the decode field by field, and a second shared read
// must return the very same cached node.
func TestSharedReadMatchesDecode(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		tr := buildReadTestTree(t, 41, clustered)
		var walk func(id storage.NodeID)
		walk = func(id storage.NodeID) {
			n, err := fetchDecode(tr.Store(), id)
			if err != nil {
				t.Fatal(err)
			}
			s, err := tr.ReadSharedTracked(id, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s.ID != id || s.Leaf != n.Leaf || len(s.Entries) != len(n.Entries) {
				t.Fatalf("node %d: shared node shape mismatch", id)
			}
			if again, err := tr.ReadSharedTracked(id, nil); err != nil || again != s {
				t.Fatalf("node %d: second shared read returned %p, %v; want the cached %p", id, again, err, s)
			}
			for i := range n.Entries {
				if !sameEntry(&s.Entries[i], &n.Entries[i]) {
					t.Fatalf("node %d entry %d: shared entry differs from decode", id, i)
				}
				if !n.Leaf {
					walk(n.Entries[i].Child)
				}
			}
		}
		walk(tr.RootID())
	}
}

// TestCachedNodesIndexLongUnions: a node the bound cache holds carries
// a term index on every union vector WithIndex admits, each non-object
// entry's and each cluster summary's, so the scorer's asymmetric dots
// against them take the indexed path. A plain decode carries none.
func TestCachedNodesIndexLongUnions(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		// 200 terms: node unions run to 32 terms and past, and their
		// spans are dense enough to index.
		tr := buildTreeOf(t, randObjects(rand.New(rand.NewSource(45)), 600, 200), 45, clustered)
		indexed := map[bool]int{} // by whether the union is a cluster summary's
		check := func(id storage.NodeID, cluster bool, u vector.Vector) {
			switch {
			case u.HasIndex():
				indexed[cluster]++
			case u.WithIndex().HasIndex():
				t.Errorf("clustered=%v node %d: cached %d-term union (cluster summary: %v) has no term index",
					clustered, id, u.Len(), cluster)
			}
		}
		for _, id := range warmBoundCache(t, tr) {
			n, ok := tr.boundCache.get(id)
			if !ok {
				t.Fatalf("node %d is not cached after a shared read", id)
			}
			for i := range n.Entries {
				e := &n.Entries[i]
				if e.IsObject() {
					continue
				}
				check(id, false, e.Env.Uni)
				for j := range e.Clusters {
					check(id, true, e.Clusters[j].Env.Uni)
				}
			}
		}
		if indexed[false] == 0 || (clustered && indexed[true] == 0) {
			t.Fatalf("clustered=%v: too few long unions to check (%v indexed)", clustered, indexed)
		}
		n, err := fetchDecode(tr.Store(), tr.RootID())
		if err != nil {
			t.Fatal(err)
		}
		for i := range n.Entries {
			if n.Entries[i].Env.Uni.HasIndex() {
				t.Errorf("clustered=%v: plain decode of the root indexes entry %d", clustered, i)
			}
		}
	}
}

// TestWarmSharedReadDoesNotAllocate covers the whole warm shared read: a
// bound-cache hit performs zero heap allocations end to end, yet still
// charges the simulated I/O.
func TestWarmSharedReadDoesNotAllocate(t *testing.T) {
	tr := buildReadTestTree(t, 43, false)
	id := tr.RootID()
	if _, err := tr.ReadSharedTracked(id, nil); err != nil { // cold: fills the cache
		t.Fatal(err)
	}
	var tk storage.Tracker
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := tr.ReadSharedTracked(id, &tk); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm ReadSharedTracked allocates %.1f times per read, want 0", allocs)
	}
	if tk.Reads() == 0 {
		t.Error("warm reads skipped the simulated I/O charge")
	}
}

// TestWarmSharedReadOnFileStoreDoesNotAllocate is the same check on a
// saved and reopened tree whose 1-page buffer pool every read misses: a
// warm shared read still charges a page read, yet fetches nothing from
// the log, so it allocates nothing and succeeds with the log emptied.
func TestWarmSharedReadOnFileStoreDoesNotAllocate(t *testing.T) {
	built := buildReadTestTree(t, 45, false)
	path := filepath.Join(t.TempDir(), "index.log")
	headerID, err := built.Store().(*storage.Store).WriteLog(path, built.Header())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := storage.OpenFileStore(path, storage.WithBufferPool(1))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	tr, err := Open(fs, headerID)
	if err != nil {
		t.Fatal(err)
	}
	ids := warmBoundCache(t, tr)
	if len(ids) < 2 {
		t.Fatalf("tree has %d nodes; a 1-page pool needs two to miss", len(ids))
	}
	// From here on a pread finds nothing to read and fails.
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	var tk storage.Tracker
	allocs := testing.AllocsPerRun(100, func() {
		for _, id := range ids {
			if _, err := tr.ReadSharedTracked(id, &tk); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warm ReadSharedTracked on a FileStore allocates %.1f times per %d reads, want 0", allocs, len(ids))
	}
	if tk.Reads() == 0 || tk.CacheHits() != 0 {
		t.Errorf("tracker %+v, want every warm read charged as a pool miss", tk.Stats())
	}
}

// TestBoundCacheGetDoesNotAllocate pins the cache's hit path: a lookup
// takes no locks that allocate, touches no container/list machinery, and
// returns the shared entry as-is.
func TestBoundCacheGetDoesNotAllocate(t *testing.T) {
	tr := buildReadTestTree(t, 44, false)
	if _, err := tr.ReadSharedTracked(tr.RootID(), nil); err != nil {
		t.Fatal(err)
	}
	id := tr.RootID()
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := tr.boundCache.get(id); !ok {
			t.Fatal("root fell out of the bound cache")
		}
	})
	if allocs != 0 {
		t.Errorf("bound cache get allocates %.1f times per hit, want 0", allocs)
	}
}

// readBlob stores blob on a fresh store and reads it back through
// fetchDecode and the node read, returning their errors (decode, shared
// read) and whether the shared read left the node cached. Each must stay
// within allocbound.Node.
func readBlob(t *testing.T, blob []byte) (decErr, sharedErr error, cached bool) {
	t.Helper()
	store := storage.NewStore()
	id := store.Put(blob)
	tr := &Snapshot{store: store, boundCache: newBoundCache(16)}
	allocbound.Check(t, allocbound.Node, len(blob), func() { _, decErr = fetchDecode(store, id) })
	allocbound.Check(t, allocbound.Node, len(blob), func() { _, sharedErr = tr.ReadSharedTracked(id, nil) })
	return decErr, sharedErr, tr.boundCache.contains(id)
}

// TestDerivedEnvelopeDecodeStaysLinear: a derived envelope is rebuilt at
// decode time from the entry's cluster summaries, whose count the blob
// chooses (up to 65535). A pairwise fold over them allocated every
// intermediate union, quadratic in the count: 2,000 one-term summaries
// (50 KB of blob) asked for about 26 MB.
func TestDerivedEnvelopeDecodeStaysLinear(t *testing.T) {
	cs := make([]ClusterSummary, 2000)
	envs := make([]vector.Envelope, len(cs))
	for i := range cs {
		envs[i] = vector.Exact(vector.New(map[vector.TermID]float64{vector.TermID(i): 1}))
		cs[i] = ClusterSummary{Cluster: int32(i), Count: 1, Env: envs[i]}
	}
	entry := Entry{Count: int32(len(cs)), Env: vector.MergeAll(envs), Clusters: cs}
	blob := encodeNode(&Node{Leaf: true, Entries: []Entry{entry}})
	if blob[3+32+12] != 2 {
		t.Fatalf("entry envelope shape %d, want 2 (derived)", blob[3+32+12])
	}
	if decErr, sharedErr, _ := readBlob(t, blob); decErr != nil || sharedErr != nil {
		t.Fatalf("decode %v, shared read %v", decErr, sharedErr)
	}
}

// TestCorruptNodeRejectedByBothReads: the node read and decodeNode over
// the fetched bytes must both reject every corruption of a node blob — oversized entry and cluster counts,
// truncation at any byte, trailing garbage, and a negative cluster ID —
// never panic, never accept, and never cache a rejected node. Rejecting
// is not enough for an oversized count: a decoder that allocates for the
// count before checking it against the blob still ends in an error, so
// readBlob holds every read to the allocation bound.
func TestCorruptNodeRejectedByBothReads(t *testing.T) {
	env := vector.Envelope{
		Int: vector.New(map[vector.TermID]float64{1: 0.5}),
		Uni: vector.New(map[vector.TermID]float64{1: 0.5, 4: 0.25}),
	}
	n := &Node{Leaf: true, Entries: []Entry{
		{Child: storage.InvalidNode, ObjID: 7, Count: 1, Env: env,
			Clusters: []ClusterSummary{{Cluster: 2, Count: 1, Env: env}}},
		{Child: storage.InvalidNode, ObjID: 9, Count: 1, Env: env},
	}}
	blob := encodeNode(n)
	reject := func(what string, b []byte) {
		t.Helper()
		decErr, sharedErr, cached := readBlob(t, b)
		if decErr == nil || sharedErr == nil {
			t.Errorf("%s accepted: decode %v, shared read %v", what, decErr, sharedErr)
		}
		if cached {
			t.Errorf("%s: rejected node left in the bound cache", what)
		}
	}
	if decErr, sharedErr, cached := readBlob(t, blob); decErr != nil || sharedErr != nil || !cached {
		t.Fatalf("pristine blob: decode %v, shared read %v, cached %v", decErr, sharedErr, cached)
	}

	// Oversized entry count: claims more entries than the blob can hold.
	c := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint16(c[1:], 0xFFFF)
	reject("oversized entry count", c)

	// Truncation at every length.
	for i := 0; i < len(blob); i++ {
		reject("truncation to "+strconv.Itoa(i)+" bytes", blob[:i])
	}

	// Trailing garbage is corruption too.
	reject("trailing byte", append(append([]byte(nil), blob...), 0))

	// Oversized cluster count: the first entry's u16 summary count
	// follows the node header, the entry's rect and three int32s, and
	// its derived-envelope shape byte.
	off := 3 + 32 + 12 + 1
	c = append([]byte(nil), blob...)
	if got := binary.LittleEndian.Uint16(c[off:]); got != 1 {
		t.Fatalf("cluster count at offset %d reads %d, want 1", off, got)
	}
	binary.LittleEndian.PutUint16(c[off:], 0xFFFF)
	reject("oversized cluster count", c)

	// A negative cluster ID would index a per-cluster histogram at -1.
	// The first entry's only summary follows the u16 summary count.
	off += 2
	c = append([]byte(nil), blob...)
	if got := int32(binary.LittleEndian.Uint32(c[off:])); got != 2 {
		t.Fatalf("cluster ID at offset %d reads %d, want 2", off, got)
	}
	binary.LittleEndian.PutUint32(c[off:], math.MaxUint32) // -1
	reject("negative cluster ID", c)
}
