package iurtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"rstknn/internal/geom"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// Zero-copy node views.
//
// The eager read path (ReadNodeTracked) materializes a *Node per visit:
// an Entry slice, two term vectors per envelope, and a ClusterSummary
// slice per clustered entry — tens of kilobytes of garbage for a node
// the search may only probe for a handful of bounds. A NodeView instead
// validates the blob's structure once (one pass over the length headers,
// no vector decode) and serves every fixed-width entry field — MBR,
// child pointer, object ID, subtree count — straight from the stored
// page bytes at fixed offsets. The variable-width textual payload
// (envelopes and cluster summaries) is the expensive part, and it is
// query-independent, so it comes from the snapshot's bound cache (see
// textcache.go): decoded once per node, shared by every query and every
// round until the node is retired and freed.
//
// Offset table: parseNodeView fills offs with the byte offset of every
// entry's start plus an end-of-blob sentinel, so entry i occupies
// blob[offs[i]:offs[i+1]] and its fixed header sits at offs[i]:
//
//	offs[i]+0   4 * f64  rect (minX minY maxX maxY)
//	offs[i]+32  i32      child node ID
//	offs[i]+36  i32      object ID
//	offs[i]+40  i32      subtree object count
//
// The blob slice is aliased from the store, not copied; the epoch pin
// every query holds guarantees the node cannot be freed (and its slot
// recycled) while a view over it is live.

// entryFixedSize is the minimum encoded size of one entry: rect (32) +
// child/objID/count (12) + envelope shape byte (1) + cluster count (2).
// decodeNode and parseNodeView both use it to reject impossible entry
// counts before doing per-entry work.
const entryFixedSize = 47

// NodeView is a zero-copy reader over one stored node. Obtain one with
// ReadViewTracked; the zero value is only returned alongside an error.
// Views are cheap values — copying one copies a few words — and are valid
// while the reading query holds its snapshot pin.
type NodeView struct {
	id   storage.NodeID
	blob []byte
	offs []int32   // entry start offsets + end sentinel; len = Len()+1
	text *nodeText // cached textual payload (envelopes, cluster summaries)
	leaf bool
}

// ID returns the NodeID the view reads.
func (v *NodeView) ID() storage.NodeID { return v.id }

// Len returns the number of entries in the node.
//
//rstknn:hotpath fixed-offset view accessor on the zero-copy read path
func (v *NodeView) Len() int {
	return len(v.offs) - 1
}

// Leaf reports whether the node is a leaf.
//
//rstknn:hotpath fixed-offset view accessor on the zero-copy read path
func (v *NodeView) Leaf() bool {
	return v.leaf
}

// EntryRect returns entry i's MBR, read from the page bytes.
//
//rstknn:hotpath fixed-offset view accessor on the zero-copy read path
func (v *NodeView) EntryRect(i int) geom.Rect {
	b := v.blob[v.offs[i]:]
	return geom.Rect{
		Min: geom.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(b)),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		},
		Max: geom.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
		},
	}
}

// EntryChild returns entry i's child NodeID (InvalidNode for objects).
//
//rstknn:hotpath fixed-offset view accessor on the zero-copy read path
func (v *NodeView) EntryChild(i int) storage.NodeID {
	return storage.NodeID(binary.LittleEndian.Uint32(v.blob[v.offs[i]+32:]))
}

// EntryObjID returns entry i's object ID (meaningful for objects only).
//
//rstknn:hotpath fixed-offset view accessor on the zero-copy read path
func (v *NodeView) EntryObjID(i int) int32 {
	return int32(binary.LittleEndian.Uint32(v.blob[v.offs[i]+36:]))
}

// EntryCount returns entry i's subtree object count.
//
//rstknn:hotpath fixed-offset view accessor on the zero-copy read path
func (v *NodeView) EntryCount(i int) int32 {
	return int32(binary.LittleEndian.Uint32(v.blob[v.offs[i]+40:]))
}

// EntryIsObject reports whether entry i is a leaf-level object entry.
//
//rstknn:hotpath fixed-offset view accessor on the zero-copy read path
func (v *NodeView) EntryIsObject(i int) bool {
	return v.EntryChild(i) == storage.InvalidNode
}

// EntryEnv returns entry i's textual envelope. The vectors are owned by
// the snapshot's bound cache and shared between queries — read-only,
// like everything reached through a view.
//
//rstknn:hotpath cached textual payload on the zero-copy read path
func (v *NodeView) EntryEnv(i int) vector.Envelope {
	return v.text.entries[i].Env
}

// EntryClusters returns entry i's cluster summaries (nil on plain
// IUR-trees). Shared and read-only, like EntryEnv.
//
//rstknn:hotpath cached textual payload on the zero-copy read path
func (v *NodeView) EntryClusters(i int) []ClusterSummary {
	return v.text.entries[i].Clusters
}

// Entry materializes entry i as a full Entry value. The struct is a pure
// copy — its Env and Clusters fields reference the cached, shared
// decodes — so no allocation happens and the result stays valid after
// the view is recycled. Callers that keep many entries should fill them
// in place with AppendEntries and reference them rather than copy the
// 184-byte value around.
//
//rstknn:hotpath entry materialization for survivors of pruning
func (v *NodeView) Entry(i int) Entry {
	var e Entry
	v.fillEntry(i, &e)
	return e
}

// fillEntry writes entry i's fields into *e.
func (v *NodeView) fillEntry(i int, e *Entry) {
	t := &v.text.entries[i]
	e.Rect = v.EntryRect(i)
	e.Child = v.EntryChild(i)
	e.ObjID = v.EntryObjID(i)
	e.Count = v.EntryCount(i)
	e.Env = t.Env
	e.Clusters = t.Clusters
}

// AppendEntries appends every entry of the node to dst and returns the
// extended slice — the bulk form of Entry for expansion paths that need
// the whole fan-out. Entries are written in place into dst's spare
// capacity, so a dst with room for Len() more entries is filled without
// allocating or copying a whole Entry value. Like Entry, the results stay
// valid after the view is recycled; the search materializes each node it
// expands or refines this way once, and references the entries for the
// rest of the query.
func (v *NodeView) AppendEntries(dst []Entry) []Entry {
	n := v.Len()
	off := len(dst)
	dst = slices.Grow(dst, n)[:off+n]
	for i := 0; i < n; i++ {
		v.fillEntry(i, &dst[off+i])
	}
	return dst
}

// RecycleBuf surrenders the view's offset buffer so the caller can pass
// it to the next ReadViewTracked instead of growing a fresh one. The
// view must not be used afterwards.
func (v *NodeView) RecycleBuf() []int32 {
	b := v.offs
	v.offs = nil
	return b
}

// parseNodeView validates the structural layout of a node blob — header,
// per-entry fixed fields, envelope and cluster framing, no trailing
// bytes — and fills offs (reused when its capacity suffices) with the
// entry offset table. It walks only length headers: no vector is decoded
// and nothing is allocated beyond the offset table itself. Semantic
// checks inside vector payloads (term ordering) are deferred to the
// one-time full decode that populates the bound cache, so every blob
// decodeNode accepts parses, and every blob it rejects fails either here
// or there.
func parseNodeView(blob []byte, offs []int32) (leaf bool, _ []int32, err error) {
	if len(blob) < 3 {
		return false, offs, fmt.Errorf("truncated node header")
	}
	if len(blob) > math.MaxInt32 {
		// The offset table is int32; every in-blob offset below fits
		// once the blob itself does (stored pages are a few KiB — this
		// only rejects absurd corruption).
		return false, offs, fmt.Errorf("node blob too large (%d bytes)", len(blob))
	}
	count := int(binary.LittleEndian.Uint16(blob[1:]))
	off := 3
	if len(blob)-off < count*entryFixedSize {
		return false, offs, fmt.Errorf("entry count %d exceeds blob size", count)
	}
	if cap(offs) < count+1 {
		offs = make([]int32, 0, count+1)
	}
	offs = offs[:0]
	for i := 0; i < count; i++ {
		// skipEntry bounds-checks every length header against its input,
		// so the size it returns never exceeds len(blob[off:]) and off
		// stays ≤ len(blob) ≤ MaxInt32 (guarded above) on every round —
		// a relational invariant the taint analysis cannot express.
		offs = append(offs, int32(off)) //rstknn:validated off ≤ len(blob) ≤ MaxInt32, see loop comment
		sz, err := skipEntry(blob[off:])
		if err != nil {
			return false, offs, fmt.Errorf("entry %d: %w", i, err)
		}
		off += sz
	}
	if off != len(blob) {
		return false, offs, fmt.Errorf("node blob has %d trailing bytes", len(blob)-off)
	}
	offs = append(offs, int32(off)) //rstknn:validated off == len(blob) ≤ MaxInt32 on this line
	return blob[0] == 1, offs, nil
}

// skipEntry returns the encoded size of the entry at the front of buf,
// validating its framing without decoding any vector.
func skipEntry(buf []byte) (int, error) {
	off := 32 + 12 // rect + child/objID/count
	if len(buf) <= off {
		return 0, fmt.Errorf("truncated entry header")
	}
	derived := false
	if buf[off] == 2 {
		derived = true
		off++
	} else {
		n, err := skipEnvelopeShaped(buf[off:])
		if err != nil {
			return 0, err
		}
		off += n
	}
	if len(buf) < off+2 {
		return 0, fmt.Errorf("truncated cluster count")
	}
	nc := int(binary.LittleEndian.Uint16(buf[off:]))
	off += 2
	if nc > 0 {
		// Same impossible-count guard as decodeEntry: a cluster summary
		// is at least 8 header bytes plus a one-byte-shaped envelope.
		if len(buf)-off < nc*9 {
			return 0, fmt.Errorf("cluster count %d exceeds blob size", nc)
		}
		for i := 0; i < nc; i++ {
			if len(buf) < off+8 {
				return 0, fmt.Errorf("truncated cluster summary %d", i)
			}
			off += 8
			n, err := skipEnvelopeShaped(buf[off:])
			if err != nil {
				return 0, err
			}
			off += n
		}
	}
	if derived && nc == 0 {
		return 0, fmt.Errorf("derived envelope with no cluster summaries")
	}
	return off, nil
}

// skipEnvelopeShaped returns the encoded size of a shape-prefixed
// envelope (shape byte included) without decoding it.
func skipEnvelopeShaped(buf []byte) (int, error) {
	if len(buf) < 1 {
		return 0, fmt.Errorf("truncated envelope shape byte")
	}
	switch buf[0] {
	case 0:
		n, err := vector.SkipVector(buf[1:])
		if err != nil {
			return 0, err
		}
		return n + 1, nil
	case 1:
		n, err := vector.SkipEnvelope(buf[1:])
		if err != nil {
			return 0, err
		}
		return n + 1, nil
	default:
		return 0, fmt.Errorf("unknown envelope shape %d", buf[0])
	}
}
