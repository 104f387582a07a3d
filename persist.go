package rstknn

import (
	"encoding/json"
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
//	index.log     every tree node blob and the tree header, one record per
//	              NodeID (storage.Store.WriteLog)
//
// Open reverses it without re-tokenizing, re-weighting, re-clustering, or
// rebuilding the tree: queries against a reopened engine return exactly
// what the original returned. The nodes stay in index.log and are read on
// demand; the file is never written while an engine has it open. Updates
// to an opened engine live in memory until the next Save.

const persistVersion = 1

type persistMeta struct {
	Version   int           `json:"version"`
	Options   Options       `json:"options"`
	HeaderID  int32         `json:"header_id"`
	Objects   int           `json:"objects"`
	BuildTime time.Duration `json:"build_time_ns"`
}

// Save persists the engine into dir (created if missing). The directory
// is self-contained and can be reopened with Open. Save is the only
// writer of index.log, and it is safe into the directory the engine was
// opened from: the new log is renamed into place, and the engine keeps
// reading the file it opened. Save is a writer that publishes nothing:
// it serializes with the write path, so the snapshot saved is the
// current one and no update lands while its slots are copied, and it is
// safe with queries and updates in flight. It charges no I/O and leaves
// the buffer pool alone.
func (e *Engine) Save(dir string) error {
	return e.snap.Write(func(st *engineState) (*engineState, []storage.NodeID, error) {
		return nil, nil, e.save(dir, st)
	})
}

// save writes st into dir.
func (e *Engine) save(dir string, st *engineState) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// 1. Node blobs, slot for slot, and the tree header under a free ID.
	headerID, err := e.store.WriteLog(filepath.Join(dir, "index.log"), st.tree.Header())
	if err != nil {
		return err
	}

	// 2. Vocabulary.
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

	// 3. Objects with their weighted vectors.
	if err := dataset.SaveFile(filepath.Join(dir, "objects.csv"), st.objects, e.vocab); err != nil {
		return err
	}

	// 4. Metadata.
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
// simulated I/O as the original engine. Open never writes index.log:
// inserts, deletes and compactions of the opened engine stay in memory,
// and reach the directory only through Save.
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
	// slot so the next Save's header recycles it instead of leaking one
	// slot per save/open cycle.
	if err := fs.Free(storage.NodeID(meta.HeaderID)); err != nil {
		fs.Close()
		return nil, err
	}
	fs.ResetStats()

	scheme, _ := textual.SchemeByName(meta.Options.Weighting) // checked by validate
	e := &Engine{
		opt:     meta.Options,
		scheme:  scheme,
		measure: vector.ByName(meta.Options.Measure),
		vocab:   vocab,
		store:   fs.Store,
		log:     fs,
		build:   meta.BuildTime,
	}
	byID := make(map[int32]int, len(objs))
	for i := range objs {
		byID[objs[i].ID] = i
	}
	e.snap = storage.NewVersions(fs, &engineState{tree: tree, objects: objs, byID: byID}, tree.InvalidateNode)
	return e, nil
}

// Close releases the on-disk store of an engine loaded with Open. It is a
// no-op for engines built in memory.
func (e *Engine) Close() error {
	if e.log != nil {
		return e.log.Close()
	}
	return nil
}
