package iurtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"rstknn/internal/geom"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// Node blob layout (little-endian):
//
//	u8   leaf flag
//	u16  entry count
//	per entry:
//	  4 * f64  rect (minX minY maxX maxY)
//	  i32      child node ID (InvalidNode for object entries)
//	  i32      object ID (only meaningful for object entries)
//	  i32      subtree object count
//	  u8       envelope shape: 0 = degenerate (one vector), 1 = full,
//	           2 = derived (no vectors: the envelope is the merge of the
//	           entry's cluster envelopes, reconstructed at decode time so
//	           clustered trees never store a term vector twice)
//	  vector | envelope | nothing
//	  u16      cluster summary count
//	  per cluster summary:
//	    i32 cluster, i32 count, u8 shape, vector | envelope
//
// Snapshot header blob layout (written by Save):
//
//	magic "IURT", u16 version
//	i32 root, i32 size, i32 height, i32 numClusters
//	4 * f64 space rect, f64 maxD
//	root entry encoded like a node entry

const (
	headerMagic   = "IURT"
	headerVersion = 1
)

func appendRect(dst []byte, r geom.Rect) []byte {
	for _, f := range [4]float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

func decodeRect(buf []byte) (geom.Rect, int, error) {
	if len(buf) < 32 {
		return geom.Rect{}, 0, fmt.Errorf("truncated rect (%d bytes)", len(buf))
	}
	f := func(i int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return geom.Rect{
		Min: geom.Point{X: f(0), Y: f(1)},
		Max: geom.Point{X: f(2), Y: f(3)},
	}, 32, nil
}

func appendEnvelope(dst []byte, e vector.Envelope) []byte {
	if e.Int.Equal(e.Uni) {
		dst = append(dst, 0)
		return e.Int.AppendBinary(dst)
	}
	dst = append(dst, 1)
	return e.AppendBinary(dst)
}

func decodeEnvelopeShaped(buf []byte) (vector.Envelope, int, error) {
	if len(buf) < 1 {
		return vector.Envelope{}, 0, fmt.Errorf("truncated envelope shape byte")
	}
	shape := buf[0]
	switch shape {
	case 0:
		v, n, err := vector.DecodeVector(buf[1:])
		if err != nil {
			return vector.Envelope{}, 0, err
		}
		return vector.Exact(v), n + 1, nil
	case 1:
		e, n, err := vector.DecodeEnvelope(buf[1:])
		if err != nil {
			return vector.Envelope{}, 0, err
		}
		return e, n + 1, nil
	default:
		return vector.Envelope{}, 0, fmt.Errorf("unknown envelope shape %d", shape)
	}
}

func appendEntry(dst []byte, e *Entry) []byte {
	dst = appendRect(dst, e.Rect)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Child))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.ObjID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Count))
	if envDerivable(e) {
		dst = append(dst, 2)
	} else {
		dst = appendEnvelope(dst, e.Env)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(e.Clusters)))
	for i := range e.Clusters {
		cs := &e.Clusters[i]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(cs.Cluster))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(cs.Count))
		dst = appendEnvelope(dst, cs.Env)
	}
	return dst
}

func decodeEntry(buf []byte) (Entry, int, error) {
	var e Entry
	r, off, err := decodeRect(buf)
	if err != nil {
		return e, 0, err
	}
	e.Rect = r
	if len(buf) < off+12 {
		return e, 0, fmt.Errorf("truncated entry header")
	}
	e.Child = storage.NodeID(binary.LittleEndian.Uint32(buf[off:]))
	e.ObjID = int32(binary.LittleEndian.Uint32(buf[off+4:]))
	e.Count = int32(binary.LittleEndian.Uint32(buf[off+8:]))
	off += 12
	derived := false
	if len(buf) > off && buf[off] == 2 {
		derived = true
		off++
	} else {
		env, n, err := decodeEnvelopeShaped(buf[off:])
		if err != nil {
			return e, 0, err
		}
		e.Env = env
		off += n
	}
	if len(buf) < off+2 {
		return e, 0, fmt.Errorf("truncated cluster count")
	}
	nc := int(binary.LittleEndian.Uint16(buf[off:]))
	off += 2
	if nc > 0 {
		// A cluster summary is at least 8 bytes of header plus an
		// envelope; reject impossible counts before allocating.
		if len(buf)-off < nc*9 {
			return e, 0, fmt.Errorf("cluster count %d exceeds blob size", nc)
		}
		e.Clusters = make([]ClusterSummary, nc)
		for i := 0; i < nc; i++ {
			if len(buf) < off+8 {
				return e, 0, fmt.Errorf("truncated cluster summary %d", i)
			}
			e.Clusters[i].Cluster = int32(binary.LittleEndian.Uint32(buf[off:]))
			e.Clusters[i].Count = int32(binary.LittleEndian.Uint32(buf[off+4:]))
			off += 8
			cenv, n, err := decodeEnvelopeShaped(buf[off:])
			if err != nil {
				return e, 0, err
			}
			e.Clusters[i].Env = cenv
			off += n
		}
	}
	if derived {
		if len(e.Clusters) == 0 {
			return e, 0, fmt.Errorf("derived envelope with no cluster summaries")
		}
		e.Env = e.Clusters[0].Env
		for _, cs := range e.Clusters[1:] {
			e.Env = vector.Merge(e.Env, cs.Env)
		}
	}
	return e, off, nil
}

// envDerivable reports whether the entry's envelope equals the merge of
// its cluster envelopes (always true for trees built by this package) so
// it can be omitted on disk.
func envDerivable(e *Entry) bool {
	if len(e.Clusters) == 0 {
		return false
	}
	m := e.Clusters[0].Env
	for _, cs := range e.Clusters[1:] {
		m = vector.Merge(m, cs.Env)
	}
	return m.Int.Equal(e.Env.Int) && m.Uni.Equal(e.Env.Uni)
}

func encodeNode(n *Node) []byte {
	buf := make([]byte, 0, 256)
	var leaf byte
	if n.Leaf {
		leaf = 1
	}
	buf = append(buf, leaf)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(n.Entries)))
	for i := range n.Entries {
		buf = appendEntry(buf, &n.Entries[i])
	}
	return buf
}

func decodeNode(buf []byte) (*Node, error) {
	if len(buf) < 3 {
		return nil, fmt.Errorf("truncated node header")
	}
	n := &Node{Leaf: buf[0] == 1}
	count := int(binary.LittleEndian.Uint16(buf[1:]))
	off := 3
	// An entry is at least entryFixedSize bytes; reject impossible entry
	// counts before allocating for them.
	if len(buf)-off < count*entryFixedSize {
		return nil, fmt.Errorf("entry count %d exceeds blob size", count)
	}
	n.Entries = make([]Entry, count)
	for i := 0; i < count; i++ {
		e, sz, err := decodeEntry(buf[off:])
		if err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, err)
		}
		n.Entries[i] = e
		off += sz
	}
	if off != len(buf) {
		return nil, fmt.Errorf("node blob has %d trailing bytes", len(buf)-off)
	}
	return n, nil
}

// Save serializes the tree header onto the store and returns its NodeID,
// allowing the tree to be reopened with Open against the same store.
func (t *Snapshot) Save() storage.NodeID {
	buf := make([]byte, 0, 128)
	buf = append(buf, headerMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, headerVersion)
	for _, v := range [4]int32{int32(t.rootID), int32(t.size), int32(t.height), int32(t.numClusters)} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = appendRect(buf, t.space)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.maxD))
	buf = appendEntry(buf, &t.rootEntry)
	return t.store.Put(buf)
}

// Open reopens a tree previously Saved under headerID on the given store.
func Open(store storage.Blobs, headerID storage.NodeID) (*Snapshot, error) {
	// A one-time header read at open, before any query exists: no
	// tracker to charge.
	buf, err := store.GetTracked(headerID, nil)
	if err != nil {
		return nil, err
	}
	if len(buf) < 6 || string(buf[:4]) != headerMagic {
		return nil, fmt.Errorf("iurtree: blob %d is not a tree header", headerID)
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != headerVersion {
		return nil, fmt.Errorf("iurtree: unsupported header version %d", v)
	}
	off := 6
	if len(buf) < off+16 {
		return nil, fmt.Errorf("iurtree: truncated header")
	}
	t := &Snapshot{store: store, boundCache: newBoundCache(DefaultBoundCacheNodes)}
	t.rootID = storage.NodeID(binary.LittleEndian.Uint32(buf[off:]))
	t.size = int(int32(binary.LittleEndian.Uint32(buf[off+4:])))
	t.height = int(int32(binary.LittleEndian.Uint32(buf[off+8:])))
	t.numClusters = int(int32(binary.LittleEndian.Uint32(buf[off+12:])))
	off += 16
	r, n, err := decodeRect(buf[off:])
	if err != nil {
		return nil, fmt.Errorf("iurtree: header space: %w", err)
	}
	t.space = r
	off += n
	if len(buf) < off+8 {
		return nil, fmt.Errorf("iurtree: truncated maxD")
	}
	t.maxD = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
	off += 8
	root, n, err := decodeEntry(buf[off:])
	if err != nil {
		return nil, fmt.Errorf("iurtree: header root entry: %w", err)
	}
	if off+n != len(buf) {
		return nil, fmt.Errorf("iurtree: header has trailing bytes")
	}
	t.rootEntry = root
	return t, nil
}
