package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// File-backed mode: blobs live in an append-only log file instead of
// memory, so a sealed index survives the process. The simulated-I/O
// accounting is identical to the in-memory store (the page counters model
// the paper's cost metric, not the host filesystem).
//
// Record format, little-endian:
//
//	u32 node ID
//	u32 payload length
//	payload bytes
//
// Update appends a new record under the same ID; the highest-offset
// record wins on reopen. Compact rewrites the log dropping superseded
// records.

// FileStore is a Store whose blobs are persisted to a log file. It keeps
// only the offset index in memory.
type FileStore struct {
	Store // embedded for options plumbing; blobs field unused

	f       *os.File
	path    string
	offsets []recordRef // indexed by NodeID
}

type recordRef struct {
	off  int64
	size int32
}

const fileRecordHeader = 8

// CreateFileStore creates (or truncates) a log file and returns an empty
// file-backed store.
func CreateFileStore(path string, opts ...Option) (*FileStore, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	fs := &FileStore{f: f, path: path}
	fs.pageSize = DefaultPageSize
	for _, o := range opts {
		o(&fs.Store)
	}
	return fs, nil
}

// OpenFileStore reopens an existing log file, rebuilding the offset index
// by scanning the records.
func OpenFileStore(path string, opts ...Option) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	fs := &FileStore{f: f, path: path}
	fs.pageSize = DefaultPageSize
	for _, o := range opts {
		o(&fs.Store)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close() //rstknn:allow errlost best-effort close; the stat error is returned
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	// Every record needs at least a header, so no valid id can reach
	// size/fileRecordHeader — checking decoded ids against it bounds the
	// offset index (and the append loop growing it) by the file size,
	// whatever a corrupt header claims.
	maxID := st.Size() / fileRecordHeader
	var off int64
	var header [fileRecordHeader]byte
	for {
		var n int
		n, err = f.ReadAt(header[:], off)
		if err == io.EOF && n == 0 {
			break
		}
		if err == io.EOF {
			// A torn header: the next append would land after it, and
			// the reopen scan would then parse it as a record.
			f.Close() //rstknn:allow errlost best-effort close; the corruption error is returned
			return nil, fmt.Errorf("storage: torn record header (%d bytes) at %d", n, off)
		}
		if err != nil {
			f.Close() //rstknn:allow errlost best-effort close; the scan error is returned
			return nil, fmt.Errorf("storage: scanning %s at %d: %w", path, off, err)
		}
		id := NodeID(binary.LittleEndian.Uint32(header[0:]))
		size := int32(binary.LittleEndian.Uint32(header[4:]))
		if id < 0 || int64(id) >= maxID {
			f.Close() //rstknn:allow errlost best-effort close; the corruption error is returned
			return nil, fmt.Errorf("storage: corrupt record id %d at %d", id, off)
		}
		// A payload that runs past the end of the file is a torn or
		// corrupt record; admitting it would let a read size its
		// buffer from the header alone.
		if size < 0 || off+fileRecordHeader+int64(size) > st.Size() {
			f.Close() //rstknn:allow errlost best-effort close; the corruption error is returned
			return nil, fmt.Errorf("storage: corrupt record size %d at %d", size, off)
		}
		for int(id) >= len(fs.offsets) {
			fs.offsets = append(fs.offsets, recordRef{off: -1})
		}
		fs.offsets[id] = recordRef{off: off + fileRecordHeader, size: size}
		off += fileRecordHeader + int64(size)
	}
	for i, r := range fs.offsets {
		if r.off < 0 {
			f.Close() //rstknn:allow errlost best-effort close; the missing-record error is returned
			return nil, fmt.Errorf("storage: missing record for node %d", i)
		}
	}
	return fs, nil
}

// Close flushes and closes the log file.
func (fs *FileStore) Close() error { return fs.f.Close() }

// Path returns the log file path.
func (fs *FileStore) Path() string { return fs.path }

// Len returns the number of stored blobs.
func (fs *FileStore) Len() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return len(fs.offsets)
}

// Put appends a new blob and returns its NodeID, reusing a freed slot
// when one is available.
func (fs *FileStore) Put(data []byte) NodeID { return fs.PutTracked(data, nil) }

// PutTracked is Put with per-writer attribution: the write I/O lands on
// the global counters and, when tr is non-nil, on the caller's tracker.
func (fs *FileStore) PutTracked(data []byte, tr *Tracker) NodeID {
	fs.mu.Lock()
	id, reused := fs.takeFreeSlot()
	if !reused {
		id = NodeID(len(fs.offsets))
	}
	if err := fs.append(id, data); err != nil {
		// The in-memory Store's Put cannot fail; keep the signature and
		// surface the failure at the next read instead.
		if !reused {
			fs.offsets = append(fs.offsets, recordRef{off: -1})
			fs.ensureSlotState(len(fs.offsets))
		} else {
			fs.offsets[id] = recordRef{off: -1}
		}
		fs.mu.Unlock()
		return id
	}
	if !reused {
		fs.ensureSlotState(len(fs.offsets))
	}
	fs.mu.Unlock()
	fs.stats.chargeWrite(int64(fs.pagesFor(len(data))), tr)
	if fs.cache != nil {
		fs.cache.put(id, cloneBytes(data), fs.pagesFor(len(data)))
	}
	return id
}

// Retire marks the blob as superseded garbage: still readable for
// pinned snapshots, excluded from LivePages/LiveBytes.
func (fs *FileStore) Retire(id NodeID) {
	fs.mu.Lock()
	fs.markRetired(id, len(fs.offsets))
	fs.mu.Unlock()
}

// Free reclaims a slot: reads return ErrFreed and the ID is recycled by
// a later Put. The superseded record stays in the log until Compact
// rewrites it as an empty tombstone (ID density is required on reopen).
func (fs *FileStore) Free(id NodeID) error {
	fs.mu.Lock()
	if int(id) < 0 || int(id) >= len(fs.offsets) {
		fs.mu.Unlock()
		return fmt.Errorf("storage: free of unknown node %d", id)
	}
	if !fs.markFreed(id, len(fs.offsets)) {
		fs.mu.Unlock()
		return fmt.Errorf("storage: double free of node %d: %w", id, ErrFreed)
	}
	fs.mu.Unlock()
	if fs.cache != nil {
		fs.cache.remove(id)
	}
	return nil
}

// Update replaces the blob stored under id by appending a fresh record.
func (fs *FileStore) Update(id NodeID, data []byte) error {
	fs.mu.Lock()
	if int(id) < 0 || int(id) >= len(fs.offsets) {
		fs.mu.Unlock()
		return fmt.Errorf("storage: update of unknown node %d", id)
	}
	if fs.slotFreed(id) {
		fs.mu.Unlock()
		return fmt.Errorf("storage: update of node %d: %w", id, ErrFreed)
	}
	// append overwrites fs.offsets[id] only on success, so a failed
	// update leaves the previous record visible.
	prev := fs.offsets[id]
	if err := fs.append(id, data); err != nil {
		fs.offsets[id] = prev
		fs.mu.Unlock()
		return err
	}
	fs.mu.Unlock()
	fs.stats.chargeWrite(int64(fs.pagesFor(len(data))), nil)
	if fs.cache != nil {
		fs.cache.put(id, cloneBytes(data), fs.pagesFor(len(data)))
	}
	return nil
}

// append writes a record at the end of the log and records its offset.
// Caller holds the lock.
func (fs *FileStore) append(id NodeID, data []byte) error {
	end, err := fs.f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	var header [fileRecordHeader]byte
	binary.LittleEndian.PutUint32(header[0:], uint32(id))
	binary.LittleEndian.PutUint32(header[4:], uint32(len(data)))
	if _, err := fs.f.Write(header[:]); err != nil {
		return err
	}
	if _, err := fs.f.Write(data); err != nil {
		return err
	}
	ref := recordRef{off: end + fileRecordHeader, size: int32(len(data))}
	if int(id) == len(fs.offsets) {
		fs.offsets = append(fs.offsets, ref)
	} else {
		fs.offsets[id] = ref
	}
	return nil
}

// GetTracked returns the blob stored under id, charging simulated I/O
// unless the buffer pool holds it. The charge lands on the global
// counters and, when tr is non-nil, on the caller's tracker.
// os.File.ReadAt is safe for concurrent use, so readers only share-lock
// the offset index.
func (fs *FileStore) GetTracked(id NodeID, tr *Tracker) ([]byte, error) {
	fs.mu.RLock()
	if int(id) < 0 || int(id) >= len(fs.offsets) {
		fs.mu.RUnlock()
		return nil, fmt.Errorf("storage: read of unknown node %d", id)
	}
	if fs.slotFreed(id) {
		fs.mu.RUnlock()
		return nil, fmt.Errorf("storage: read of node %d: %w", id, ErrFreed)
	}
	ref := fs.offsets[id]
	fs.mu.RUnlock()
	if fs.cache != nil {
		if b, ok := fs.cache.get(id); ok {
			fs.stats.chargeHit(tr)
			return b, nil
		}
	}
	if ref.off < 0 {
		return nil, fmt.Errorf("storage: node %d has no durable record (failed write?)", id)
	}
	buf := make([]byte, ref.size)
	if _, err := fs.f.ReadAt(buf, ref.off); err != nil {
		return nil, fmt.Errorf("storage: reading node %d: %w", id, err)
	}
	fs.stats.chargeRead(int64(fs.pagesFor(len(buf))), tr)
	if fs.cache != nil {
		fs.cache.put(id, buf, fs.pagesFor(len(buf)))
	}
	return buf, nil
}

// TotalPages returns the page footprint of every non-freed blob
// (log records superseded by Update are not counted; see Compact).
func (fs *FileStore) TotalPages() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var n int64
	for id, r := range fs.offsets {
		if fs.slotFreed(NodeID(id)) {
			continue
		}
		n += int64(fs.pagesFor(int(r.size)))
	}
	return n
}

// TotalBytes returns the payload bytes of every non-freed blob.
func (fs *FileStore) TotalBytes() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var n int64
	for id, r := range fs.offsets {
		if fs.slotFreed(NodeID(id)) {
			continue
		}
		n += int64(r.size)
	}
	return n
}

// LivePages returns the page footprint of the blobs the current index
// version references (TotalPages minus retired garbage).
func (fs *FileStore) LivePages() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var n int64
	for id, r := range fs.offsets {
		if fs.slotFreed(NodeID(id)) || fs.slotRetired(NodeID(id)) {
			continue
		}
		n += int64(fs.pagesFor(int(r.size)))
	}
	return n
}

// LiveBytes returns the payload bytes of the live blobs.
func (fs *FileStore) LiveBytes() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var n int64
	for id, r := range fs.offsets {
		if fs.slotFreed(NodeID(id)) || fs.slotRetired(NodeID(id)) {
			continue
		}
		n += int64(r.size)
	}
	return n
}

// Compact rewrites the log keeping only the live record of every node,
// reclaiming space left by updates. The store remains usable afterwards.
func (fs *FileStore) Compact() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	tmpPath := fs.path + ".compact"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return err
	}
	newOffsets := make([]recordRef, len(fs.offsets))
	var off int64
	for id, ref := range fs.offsets {
		var buf []byte
		if !fs.slotFreed(NodeID(id)) {
			buf = make([]byte, ref.size)
			if _, err := fs.f.ReadAt(buf, ref.off); err != nil {
				tmp.Close()        //rstknn:allow errlost best-effort cleanup; the read error is returned
				os.Remove(tmpPath) //rstknn:allow errlost best-effort cleanup; the read error is returned
				return err
			}
		}
		// Freed slots compact to empty tombstone records: reopening
		// requires every ID to be present, and a zero payload keeps the
		// slot's accounting at zero until Put recycles it.
		var header [fileRecordHeader]byte
		binary.LittleEndian.PutUint32(header[0:], uint32(id))
		binary.LittleEndian.PutUint32(header[4:], uint32(len(buf)))
		if _, err := tmp.Write(header[:]); err != nil {
			tmp.Close()        //rstknn:allow errlost best-effort cleanup; the write error is returned
			os.Remove(tmpPath) //rstknn:allow errlost best-effort cleanup; the write error is returned
			return err
		}
		if _, err := tmp.Write(buf); err != nil {
			tmp.Close()        //rstknn:allow errlost best-effort cleanup; the write error is returned
			os.Remove(tmpPath) //rstknn:allow errlost best-effort cleanup; the write error is returned
			return err
		}
		newOffsets[id] = recordRef{off: off + fileRecordHeader, size: int32(len(buf))}
		off += fileRecordHeader + int64(len(buf))
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fs.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, fs.path); err != nil {
		return err
	}
	f, err := os.OpenFile(fs.path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	fs.f = f
	fs.offsets = newOffsets
	if fs.cache != nil {
		fs.cache.clear()
	}
	return nil
}
