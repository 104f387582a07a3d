package rstknn

import (
	"fmt"

	"rstknn/internal/storage"
	"rstknn/internal/textual"
	"rstknn/internal/vector"
)

// Object is one geo-textual object to index: an application ID, a planar
// location, and a raw text description (tokenized and weighted by the
// engine).
type Object struct {
	ID   int32
	X, Y float64
	Text string
}

// IndexKind selects the index structure.
type IndexKind int

const (
	// IUR builds the plain Intersection-Union R-tree.
	IUR IndexKind = iota
	// CIUR builds the cluster-enhanced IUR-tree: objects are clustered by
	// text and every node stores per-cluster envelopes for tighter bounds.
	CIUR
)

// String implements fmt.Stringer.
func (k IndexKind) String() string {
	switch k {
	case IUR:
		return "iur"
	case CIUR:
		return "ciur"
	default:
		return fmt.Sprintf("IndexKind(%d)", int(k))
	}
}

// Options configure an Engine. The zero value gives a sensible default:
// alpha 0.5, TF-IDF weighting, Extended Jaccard similarity, a plain
// IUR-tree with 4 KiB pages and no buffer pool (cold-query I/O counting).
// The tree's fan-out is fixed at 32 entries per node and is not an
// option; meta.json files that still carry FanoutMin/FanoutMax open
// with those fields ignored.
type Options struct {
	// Alpha in [0,1] weighs spatial proximity against text similarity;
	// the conventional default is 0.5. Use AlphaSet to pass an explicit 0.
	Alpha float64
	// AlphaSet marks Alpha as intentionally 0 (pure text ranking).
	AlphaSet bool
	// Weighting is the term weighting scheme: "tfidf" (default), "tf", or
	// "binary" (binary + "ej" yields the keyword-overlap measure).
	Weighting string
	// Measure is the text similarity: "ej" (default) or "cosine".
	Measure string
	// Index picks IUR (default) or CIUR.
	Index IndexKind
	// Clusters is the CIUR cluster count (default 8).
	Clusters int
	// OutlierThreshold enables O-CIUR outlier extraction when positive.
	OutlierThreshold float64
	// EntropyRefinement enables the E-CIUR entropy-driven refinement
	// order at query time.
	EntropyRefinement bool
	// GroupRefine allows this many contributor refinements on internal
	// candidates before expansion (see the paper's lazy group pruning).
	GroupRefine int
	// PageSize overrides the simulated 4 KiB disk page.
	PageSize int
	// BufferPoolPages enables an LRU buffer pool of that many pages.
	// Large pools are sharded by node ID so concurrent queries do not
	// contend on one cache mutex.
	BufferPoolPages int
	// Workers bounds intra-query parallelism: each query's
	// branch-and-bound frontier is processed in rounds fanned across
	// this many goroutines (and Influence fans its per-user loop the
	// same way). 0 defaults to runtime.GOMAXPROCS(0); 1 forces the
	// sequential path; values above GOMAXPROCS are clamped to it, and
	// rounds with fewer candidates than the fan-out threshold run inline,
	// so low-core machines never pay goroutine overhead for tiny rounds.
	// Results and QueryStats are identical at every
	// setting — parallelism only changes wall-clock time. BatchQuery
	// sizes each query's pool with its own parallelism argument instead.
	Workers int
	// Seed fixes clustering randomness.
	Seed int64
}

func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.Alpha == 0 && !out.AlphaSet {
		out.Alpha = 0.5
	}
	if out.Weighting == "" {
		out.Weighting = "tfidf"
	}
	if out.Measure == "" {
		out.Measure = "ej"
	}
	if out.Clusters == 0 {
		out.Clusters = 8
	}
	if out.PageSize == 0 {
		out.PageSize = storage.DefaultPageSize
	}
	return out, out.validate()
}

// validate checks resolved options — what Build keeps and Save writes
// to meta.json — so Build and Open return an error for inputs the
// storage layer would otherwise panic on.
func (o *Options) validate() error {
	if o.Alpha < 0 || o.Alpha > 1 {
		return fmt.Errorf("rstknn: Alpha must be in [0,1], got %g", o.Alpha)
	}
	if _, err := textual.SchemeByName(o.Weighting); err != nil {
		return err
	}
	if vector.ByName(o.Measure) == nil {
		return fmt.Errorf("rstknn: unknown measure %q", o.Measure)
	}
	if o.PageSize <= 0 {
		return fmt.Errorf("rstknn: PageSize must be positive, got %d", o.PageSize)
	}
	return nil
}
