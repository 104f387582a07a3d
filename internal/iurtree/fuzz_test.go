package iurtree

import (
	"bytes"
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

// FuzzNodeRoundTrip drives the node codec with arbitrary bytes. Decoding
// must never panic, and any blob the decoder accepts must reach a fixed
// point after one re-encode: the encoder canonicalizes envelope shapes
// (degenerate/full/derived), so the first re-encode may legitimately
// shrink the input, but encode(decode(x)) must be stable from then on.
// The first decode, accepting or rejecting, stays within allocbound.Node.
func FuzzNodeRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			n1  *Node
			err error
		)
		allocbound.Check(t, allocbound.Node, len(data), func() { n1, err = decodeNode(data) })
		if err != nil {
			return
		}
		enc1 := encodeNode(n1)
		n2, err := decodeNode(enc1)
		if err != nil {
			t.Fatalf("re-decoding an encoded node failed: %v\nblob: %x", err, enc1)
		}
		if n2.Leaf != n1.Leaf || len(n2.Entries) != len(n1.Entries) {
			t.Fatalf("re-decode changed node shape: leaf %v->%v, %d->%d entries",
				n1.Leaf, n2.Leaf, len(n1.Entries), len(n2.Entries))
		}
		if enc2 := encodeNode(n2); !bytes.Equal(enc2, enc1) {
			t.Fatalf("encoding is not a fixed point:\nenc1: %x\nenc2: %x", enc1, enc2)
		}
	})
}

// FuzzSharedRead drives the node read with arbitrary bytes against a
// plain decode as the oracle. The blob is stored, decoded by decodeNode
// over the bytes Store.Fetch returns, and read through
// ReadSharedTracked with the bound cache on: the two must accept and
// reject the same blobs, an accepted node must agree entry by entry with
// the decode and stay cached, so a second shared read returns the very
// same node, and a rejected one must never be cached. Nothing may panic
// either way, and each decode stays within allocbound.Node.
func FuzzSharedRead(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		store := storage.NewStore()
		id := store.Put(data)
		tr := &Snapshot{store: store, boundCache: newBoundCache(16)}
		var (
			n, s              *Node
			decErr, sharedErr error
		)
		allocbound.Check(t, allocbound.Node, len(data), func() { n, decErr = fetchDecode(store, id) })
		allocbound.Check(t, allocbound.Node, len(data), func() { s, sharedErr = tr.ReadSharedTracked(id, nil) })
		if (decErr == nil) != (sharedErr == nil) {
			t.Fatalf("reads disagree: decode %v, shared %v\nblob: %x", decErr, sharedErr, data)
		}
		if decErr != nil {
			if tr.boundCache.contains(id) {
				t.Fatalf("rejected node left in the bound cache (%v)\nblob: %x", decErr, data)
			}
			return
		}
		if s.ID != id || s.Leaf != n.Leaf || len(s.Entries) != len(n.Entries) {
			t.Fatalf("shared node (id %d, leaf %v, %d entries) != decode (id %d, leaf %v, %d entries)",
				s.ID, s.Leaf, len(s.Entries), id, n.Leaf, len(n.Entries))
		}
		for i := range n.Entries {
			if !sameEntry(&s.Entries[i], &n.Entries[i]) {
				t.Fatalf("entry %d: shared entry differs from decode\nblob: %x", i, data)
			}
		}
		if again, err := tr.ReadSharedTracked(id, nil); err != nil || again != s {
			t.Fatalf("second shared read returned %p, %v; want the cached %p", again, err, s)
		}
	})
}

// TestWriteNodeFuzzCorpus regenerates the checked-in seed corpus from the
// nodes of a real built tree. Run with RSTKNN_WRITE_CORPUS=1 to refresh.
func TestWriteNodeFuzzCorpus(t *testing.T) {
	if os.Getenv("RSTKNN_WRITE_CORPUS") == "" {
		t.Skip("set RSTKNN_WRITE_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	rng := rand.New(rand.NewSource(71))
	seeds := [][]byte{}
	for _, clustered := range []bool{false, true} {
		objs := randObjects(rng, 120, 15)
		cfg := Config{Store: storage.NewStore()}
		if clustered {
			docs := make([]vector.Vector, len(objs))
			for i := range objs {
				docs[i] = objs[i].Doc
			}
			cfg.Clustering = cluster.Run(docs, cluster.Config{K: 4, Seed: 1})
		}
		tr, err := Build(objs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		depths := map[int]bool{}
		if err := tr.Walk(nil, func(n *Node, depth int) error {
			// One representative node per level per tree keeps the
			// corpus small but shape-diverse.
			if !depths[depth] {
				depths[depth] = true
				seeds = append(seeds, encodeNode(n))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The same real-tree blobs seed both node fuzzers: the codec
	// round-trip and the shared-read-vs-decode equivalence check.
	for _, target := range []string{"FuzzNodeRoundTrip", "FuzzSharedRead"} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
			name := filepath.Join(dir, "seed-"+strconv.Itoa(i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
