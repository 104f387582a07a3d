package rstknn

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rstknn/internal/dataset"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
	"rstknn/internal/textual"
	"rstknn/internal/vector"
)

// Engine persistence. Save writes a directory:
//
//	meta.json     options, tree header blob ID, format version
//	vocab.csv     terms in ID order + corpus statistics
//	objects.csv   the indexed objects with their weighted vectors
//	index.log     every tree node blob, in a persistent FileStore
//
// Open reverses it without re-tokenizing, re-weighting, re-clustering, or
// rebuilding the tree: queries against a reopened engine return exactly
// what the original returned.

const persistVersion = 1

type persistMeta struct {
	Version   int           `json:"version"`
	Options   Options       `json:"options"`
	HeaderID  int32         `json:"header_id"`
	Objects   int           `json:"objects"`
	BuildTime time.Duration `json:"build_time_ns"`
}

// Save persists the engine into dir (created if missing). The directory
// is self-contained and can be reopened with Open. Save serializes with
// the write path and pins the snapshot it persists, so it is safe with
// queries and updates in flight.
func (e *Engine) Save(dir string) error {
	// Hold the writer lock: the store must not grow (or recycle slots)
	// while the blob copy walks it.
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	st, release := e.pin()
	defer release()

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// 1. Tree header onto the live store, so the blob copy includes it.
	headerID := st.tree.Save()

	// 2. Node blobs into a fresh file store, preserving IDs. Freed slots
	// become empty tombstone records: unreachable from the header, but
	// they keep the IDs dense so the copy stays slot-for-slot.
	fs, err := storage.CreateFileStore(filepath.Join(dir, "index.log"),
		storage.WithPageSize(e.opt.PageSize))
	if err != nil {
		return err
	}
	n := e.store.Len()
	for id := 0; id < n; id++ {
		// A maintenance copy outside any query: no tracker to charge,
		// and the stats are reset below.
		//rstknn:allow locksafe Save holds writeMu so the store cannot grow or recycle slots mid-copy
		blob, err := e.store.GetTracked(storage.NodeID(id), nil)
		if errors.Is(err, storage.ErrFreed) {
			blob = nil
		} else if err != nil {
			fs.Close()
			return fmt.Errorf("rstknn: copying node %d: %w", id, err)
		}
		if got := fs.Put(blob); got != storage.NodeID(id) {
			fs.Close()
			return fmt.Errorf("rstknn: blob ID drift: %d became %d", id, got)
		}
	}
	if err := fs.Close(); err != nil {
		return err
	}
	e.store.ResetStats() // the copy is maintenance, not query I/O

	// 3. Vocabulary.
	vf, err := os.Create(filepath.Join(dir, "vocab.csv"))
	if err != nil {
		return err
	}
	if err := e.vocab.Save(vf); err != nil {
		vf.Close()
		return err
	}
	if err := vf.Close(); err != nil {
		return err
	}

	// 4. Objects with their weighted vectors.
	if err := dataset.SaveFile(filepath.Join(dir, "objects.csv"), st.objects, e.vocab); err != nil {
		return err
	}

	// 5. Metadata.
	meta := persistMeta{
		Version:   persistVersion,
		Options:   e.opt,
		HeaderID:  int32(headerID),
		Objects:   len(st.objects),
		BuildTime: e.build,
	}
	buf, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "meta.json"), buf, 0o644)
}

// Open loads an engine previously written by Save. The node blobs stay on
// disk (the FileStore) and are read on demand, charging the same
// simulated I/O as the original engine.
func Open(dir string) (*Engine, error) {
	buf, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, err
	}
	var meta persistMeta
	if err := json.Unmarshal(buf, &meta); err != nil {
		return nil, fmt.Errorf("rstknn: parsing meta.json: %w", err)
	}
	if meta.Version != persistVersion {
		return nil, fmt.Errorf("rstknn: unsupported index version %d", meta.Version)
	}
	if err := meta.Options.validate(); err != nil {
		return nil, fmt.Errorf("rstknn: meta.json: %w", err)
	}

	vf, err := os.Open(filepath.Join(dir, "vocab.csv"))
	if err != nil {
		return nil, err
	}
	vocab, err := textual.LoadVocabulary(vf)
	vf.Close()
	if err != nil {
		return nil, err
	}

	objs, err := dataset.LoadFile(filepath.Join(dir, "objects.csv"), vocab)
	if err != nil {
		return nil, err
	}
	if len(objs) != meta.Objects {
		return nil, fmt.Errorf("rstknn: objects.csv has %d objects, meta says %d",
			len(objs), meta.Objects)
	}

	var storeOpts []storage.Option
	storeOpts = append(storeOpts, storage.WithPageSize(meta.Options.PageSize))
	if meta.Options.BufferPoolPages > 0 {
		storeOpts = append(storeOpts, storage.WithBufferPool(meta.Options.BufferPoolPages))
	}
	fs, err := storage.OpenFileStore(filepath.Join(dir, "index.log"), storeOpts...)
	if err != nil {
		return nil, err
	}
	tree, err := iurtree.Open(fs, storage.NodeID(meta.HeaderID))
	if err != nil {
		fs.Close()
		return nil, err
	}
	// The header blob is only needed to decode the snapshot; free its
	// slot so the next Save's fresh header recycles it instead of
	// leaking one slot per save/open cycle.
	//rstknn:allow retirepub the store is private until Open returns: no snapshot pointer is published yet and no reader can hold a pin
	fs.Retire(storage.NodeID(meta.HeaderID))
	_ = fs.Free(storage.NodeID(meta.HeaderID)) //rstknn:allow errlost first free of a just-retired slot cannot fail
	if meta.Options.BoundCache != 0 {
		tree.SetBoundCache(meta.Options.BoundCache)
	}
	fs.ResetStats()

	scheme, _ := textual.SchemeByName(meta.Options.Weighting) // checked by validate
	e := &Engine{
		opt:     meta.Options,
		scheme:  scheme,
		measure: vector.ByName(meta.Options.Measure),
		vocab:   vocab,
		store:   fs,
		build:   meta.BuildTime,
	}
	byID := make(map[int32]int, len(objs))
	for i := range objs {
		byID[objs[i].ID] = i
	}
	e.rec = storage.NewReclaimer(fs)
	e.rec.SetOnFree(tree.InvalidateNode)
	e.state.Store(&engineState{tree: tree, objects: objs, byID: byID})
	return e, nil
}

// Close releases the on-disk store of an engine loaded with Open. It is a
// no-op for engines built in memory.
func (e *Engine) Close() error {
	if fs, ok := e.store.(*storage.FileStore); ok {
		return fs.Close()
	}
	return nil
}
