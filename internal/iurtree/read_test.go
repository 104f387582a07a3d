package iurtree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"rstknn/internal/cluster"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

func buildReadTestTree(t *testing.T, seed int64, clustered bool) *Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	objs := randObjects(rng, 250, 20)
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
// reading every node through both reads: the shared node must equal the
// private decode field by field, and a second shared read must return
// the very same cached node.
func TestSharedReadMatchesDecode(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		tr := buildReadTestTree(t, 41, clustered)
		var walk func(id storage.NodeID)
		walk = func(id storage.NodeID) {
			n, err := tr.ReadNodeTracked(id, nil)
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

// readBlob stores blob on a fresh store and reads it back through both
// node reads, returning their errors (private decode, shared read) and
// whether the shared read left the node cached.
func readBlob(blob []byte) (privErr, sharedErr error, cached bool) {
	store := storage.NewStore()
	id := store.Put(blob)
	t := &Snapshot{store: store, boundCache: newBoundCache(16)}
	_, privErr = t.ReadNodeTracked(id, nil)
	_, sharedErr = t.ReadSharedTracked(id, nil)
	return privErr, sharedErr, t.boundCache.contains(id)
}

// TestCorruptNodeRejectedByBothReads: both node reads must reject every
// corruption of a node blob — oversized entry counts, truncation at any
// byte, trailing garbage, and a negative cluster ID — never panic, never
// accept, and never cache a rejected node.
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
		privErr, sharedErr, cached := readBlob(b)
		if privErr == nil || sharedErr == nil {
			t.Errorf("%s accepted: private read %v, shared read %v", what, privErr, sharedErr)
		}
		if cached {
			t.Errorf("%s: rejected node left in the bound cache", what)
		}
	}
	if privErr, sharedErr, cached := readBlob(blob); privErr != nil || sharedErr != nil || !cached {
		t.Fatalf("pristine blob: private read %v, shared read %v, cached %v", privErr, sharedErr, cached)
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

	// A negative cluster ID would index a per-cluster histogram at -1.
	// The first entry's only summary follows the node header, the
	// entry's rect and three int32s, its derived-envelope shape byte and
	// the u16 summary count.
	off := 3 + 32 + 12 + 1 + 2
	c = append([]byte(nil), blob...)
	if got := int32(binary.LittleEndian.Uint32(c[off:])); got != 2 {
		t.Fatalf("cluster ID at offset %d reads %d, want 2", off, got)
	}
	binary.LittleEndian.PutUint32(c[off:], math.MaxUint32) // -1
	reject("negative cluster ID", c)
}
