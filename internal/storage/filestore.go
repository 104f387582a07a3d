package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// File-backed mode: a Store whose slots start out as the records of a log
// file, so a sealed index survives the process. The simulated-I/O
// accounting is identical to the in-memory store (the page counters model
// the paper's cost metric, not the host filesystem).
//
// Record format, little-endian:
//
//	u32 node ID
//	u32 payload length
//	payload bytes
//
// Record i carries node ID i, and a freed slot is an empty record. So is
// a retired slot: only a pinned reader of the saving store can still
// reach it, never the reopened one. An empty record opens as a freed
// slot, back on the free list, so a Save/Open round trip keeps the slot
// table's live slots as they were and frees the rest; a store holds no
// empty blob worth keeping (a node or a header is never empty), and
// WriteLog writes an empty one as freed.
// WriteLog is the only writer of a log. An opened log is read-only: a
// slot reads its record until a Free and a later Put reuse it, and every
// Put lands in memory, as in a NewStore. Those writes reach a log only
// when WriteLog writes a new one.

const fileRecordHeader = 8

// FileStore is a Store opened from a log file. It keeps only the record
// offsets in memory, plus whatever is Put after the open.
type FileStore struct {
	*Store

	f    *os.File
	path string
}

// OpenFileStore opens a log written by WriteLog, indexing its records
// from their headers. It accepts only the layout WriteLog writes:
// record i carries ID i, and every record lies inside the file.
func OpenFileStore(path string, opts ...Option) (*FileStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fs := &FileStore{Store: NewStore(opts...), f: f, path: path}
	fs.log = f
	if err := fs.scan(); err != nil {
		f.Close() //rstknn:allow errlost best-effort close; the scan error is returned
		return nil, fmt.Errorf("storage: %s: %w", path, err)
	}
	return fs, nil
}

// scan builds the slot table from the log's record headers: one pass to
// check them and count the records, so the table is allocated once at
// its final size, and one to fill it. Empty records become freed slots,
// chained lowest ID first, so Puts recycle them in ID order.
func (fs *FileStore) scan() error {
	st, err := fs.f.Stat()
	if err != nil {
		return err
	}
	n, err := scanLog(fs.f, st.Size(), nil)
	if err != nil {
		return err
	}
	fs.slots = make([]slot, n)
	m, err := scanLog(fs.f, st.Size(), fs.slots)
	if err != nil {
		return err
	}
	if m != n {
		return fmt.Errorf("log changed while opening: %d records, then %d", n, m)
	}
	for i := n - 1; i >= 0; i-- {
		if fs.slots[i].size == 0 {
			fs.slots[i] = slot{off: int64(fs.free), state: slotFreed}
			fs.free = NodeID(i)
		}
	}
	return nil
}

// scanLog checks the record headers of a log of the given size and
// returns the record count. It fills the first len(slots) slots with the
// records' payload offsets and sizes.
func scanLog(r io.ReaderAt, size int64, slots []slot) (int, error) {
	var header [fileRecordHeader]byte
	i := 0
	for off := int64(0); off < size; i++ {
		if size-off < fileRecordHeader {
			return 0, fmt.Errorf("torn record header (%d bytes) at %d", size-off, off)
		}
		if _, err := r.ReadAt(header[:], off); err != nil {
			return 0, fmt.Errorf("reading record header at %d: %w", off, err)
		}
		// Checking the id against the record's position bounds the
		// slot table by the number of records actually read, whatever
		// a corrupt header claims.
		if id := binary.LittleEndian.Uint32(header[0:]); id != uint32(i) {
			return 0, fmt.Errorf("record %d at %d carries id %d", i, off, id)
		}
		// A payload that runs past the end of the file is a torn or
		// corrupt record; admitting it would let a read size its
		// buffer from the header alone.
		n := int64(binary.LittleEndian.Uint32(header[4:]))
		off += fileRecordHeader
		if n > size-off || n > math.MaxInt32 {
			return 0, fmt.Errorf("corrupt record size %d at %d", n, off-fileRecordHeader)
		}
		if i < len(slots) {
			slots[i] = slot{off: off, size: int32(n)}
		}
		off += n
	}
	return i, nil
}

// Close closes the log file.
func (fs *FileStore) Close() error { return fs.f.Close() }

// Path returns the log file path.
func (fs *FileStore) Path() string { return fs.path }

// WriteLog writes the store's blobs to a new log at path, slot i as
// record i and a freed or retired slot (or an empty blob) as an empty
// record, and with them extra, a blob the store does not hold, under the
// ID the store's next Put would take. It returns that ID. The bytes are
// copied from memory or from the opened log directly, so WriteLog
// charges no I/O and leaves the buffer pool alone. The log is written
// under a temporary name and renamed over path: a store opened on path
// keeps reading the file it opened.
func (s *Store) WriteLog(path string, extra []byte) (NodeID, error) {
	s.mu.RLock()
	slots := append([]slot(nil), s.slots...)
	id := s.free
	s.mu.RUnlock()
	for i := range slots {
		if slots[i].state == slotRetired {
			slots[i] = slot{}
		}
	}
	if id == InvalidNode {
		id = NodeID(len(slots))
		slots = append(slots, slot{})
	}
	slots[id] = slot{data: extra, size: int32(len(extra))}

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return InvalidNode, err
	}
	err = s.writeRecords(f, slots)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) //rstknn:allow errlost best-effort cleanup; the write error is returned
		return InvalidNode, err
	}
	return id, nil
}

// writeRecords writes slots to w as log records.
func (s *Store) writeRecords(w io.Writer, slots []slot) error {
	bw := bufio.NewWriter(w)
	var header [fileRecordHeader]byte
	for id := range slots {
		sl := &slots[id]
		binary.LittleEndian.PutUint32(header[0:], uint32(id))
		binary.LittleEndian.PutUint32(header[4:], uint32(sl.size))
		if _, err := bw.Write(header[:]); err != nil {
			return err
		}
		if !sl.inLog() {
			if _, err := bw.Write(sl.data); err != nil {
				return err
			}
		} else if _, err := io.CopyN(bw, io.NewSectionReader(s.log, sl.off, int64(sl.size)), int64(sl.size)); err != nil {
			return fmt.Errorf("storage: copying node %d: %w", id, err)
		}
	}
	return bw.Flush()
}
