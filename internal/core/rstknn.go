package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// RefineStrategy selects which contributor a candidate refines next when
// its contribution list is too coarse to decide.
type RefineStrategy int

const (
	// RefineByMaxUpper refines the contributor with the largest upper
	// bound first — the one most likely to hold real top-k neighbors.
	// This is the plain IUR/CIUR search order.
	RefineByMaxUpper RefineStrategy = iota
	// RefineByEntropy refines the textually most mixed contributor first
	// (highest cluster entropy) among the decision-relevant ones, the
	// paper's E-CIUR optimization. Falls back to RefineByMaxUpper
	// ordering on unclustered trees.
	RefineByEntropy
)

// String implements fmt.Stringer.
func (s RefineStrategy) String() string {
	switch s {
	case RefineByMaxUpper:
		return "max-upper"
	case RefineByEntropy:
		return "entropy"
	default:
		return fmt.Sprintf("RefineStrategy(%d)", int(s))
	}
}

// Options configure an RSTkNN query.
type Options struct {
	// K is the rank cutoff: an object is a result when the query is at
	// least as similar as the object's k-th nearest neighbor.
	K int
	// Alpha weights spatial proximity against textual similarity.
	Alpha float64
	// Sim is the textual measure; nil defaults to Extended Jaccard.
	Sim vector.TextSim
	// Strategy picks the contribution refinement order.
	Strategy RefineStrategy
	// GroupRefine allows up to this many contributor node refinements
	// (each one node read) on an *internal* candidate group before the
	// candidate is expanded into its children. Free rebounds of inherited
	// bounds are always performed; 0 expands as soon as rebounds stop
	// helping.
	GroupRefine int
	// Workers bounds the intra-query parallelism: the candidate frontier
	// is processed in rounds, fanning the per-candidate work (bound
	// tightening, hit/prune decisions, node reads) across this many
	// goroutines. Values <= 0 default to runtime.GOMAXPROCS(0); 1 runs
	// every round inline on one goroutine; values above GOMAXPROCS
	// are clamped to it (idle goroutines on a saturated CPU only add
	// scheduling overhead). Every verdict depends only on the
	// candidate's own contribution list, so results and Metrics are
	// identical at every worker count.
	Workers int
	// BoundTrace, when non-nil, is invoked with the final kNN bounds of
	// every object-level candidate the moment it is decided. It exists
	// for determinism tests and debugging; it must be safe for
	// concurrent use when Workers != 1.
	BoundTrace func(objID int32, knnl, knnu float64)
	// Ctx, when non-nil, makes the query cancellable: it is checked
	// before every node read (expansions and contributor refinements),
	// and the search aborts with ctx.Err() once it is done.
	Ctx context.Context
	// Tracker is the query's execution context at the storage layer:
	// when non-nil, every node read charges its simulated I/O here as
	// well as on the store's global counters, so per-query cost stays
	// exact while other queries run concurrently.
	Tracker *storage.Tracker
}

// checkCtx returns the context's error, if a context is set and done.
func checkCtx(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// effectiveWorkers resolves the Workers option to a concrete pool size.
// Requests beyond runtime.GOMAXPROCS(0) are clamped: with every CPU
// already saturated an extra goroutine can only add scheduling overhead,
// never speedup — the pinned 1-CPU baseline measured Workers=2 at 0.93x
// sequential before the clamp. Results are identical either way.
func effectiveWorkers(w int) int {
	mp := runtime.GOMAXPROCS(0)
	if w <= 0 || w > mp {
		return mp
	}
	return w
}

// Metrics reports the work one query performed. Simulated I/O is tracked
// separately on the tree's storage layer. Every counter is a sum of
// per-candidate contributions, so the totals are identical whether the
// candidates were processed sequentially or across a worker pool.
type Metrics struct {
	// NodesRead is the number of tree nodes fetched from storage.
	NodesRead int
	// ExactSims and BoundEvals count similarity computations.
	ExactSims  int64
	BoundEvals int64
	// GroupPruned / GroupReported count objects decided at node
	// granularity (never visited individually) by the two pruning rules.
	GroupPruned   int
	GroupReported int
	// Candidates is the number of object-level candidates examined.
	Candidates int
	// Refinements counts contributor refinements (node reads replacing a
	// contributor with its children); Rebounds counts the free, CPU-only
	// re-tightenings of inherited bounds.
	Refinements int
	Rebounds    int
}

// add accumulates o into m.
func (m *Metrics) add(o *Metrics) {
	m.NodesRead += o.NodesRead
	m.ExactSims += o.ExactSims
	m.BoundEvals += o.BoundEvals
	m.GroupPruned += o.GroupPruned
	m.GroupReported += o.GroupReported
	m.Candidates += o.Candidates
	m.Refinements += o.Refinements
	m.Rebounds += o.Rebounds
}

// Outcome is the result of one RSTkNN query.
type Outcome struct {
	// Results holds the IDs of all objects whose top-k would include the
	// query, sorted ascending for determinism.
	Results []int32
	Metrics Metrics
}

// group is one decision unit: the objects of one text cluster below the
// candidate's entry (or all of them, cluster = -1, on unclustered trees).
// Scoping decisions to (entry, cluster) is what makes the CIUR-tree
// effective: the candidate-side textual envelope is the cluster's, not
// the node's mixture, so both the query bounds and the kNN bounds
// tighten dramatically for textually clustered data.
type group struct {
	cluster int32
	env     vector.Envelope
	count   int32
	q       interval
	cl      contributionList
}

// candidate is one frontier slot: a tree entry plus its still-undecided
// groups. Keeping every undecided group of one entry together, across
// clusters, means expansion reads the node exactly once. The entry
// points into the expanded node's shared decode.
type candidate struct {
	entry  *iurtree.Entry
	groups []*group
}

// RSTkNN answers the reverse spatial-textual k nearest neighbor query on
// a sealed IUR-tree or CIUR-tree: it returns every indexed object o such
// that SimST(o, q) >= SimST(o, o_k), where o_k is o's k-th most similar
// indexed object (excluding o itself). Objects with fewer than k
// neighbors are always results.
//
// Every node read goes to the store and is charged to opt.Tracker.
func RSTkNN(t *iurtree.Snapshot, q Query, opt Options) (*Outcome, error) {
	if opt.K <= 0 {
		return nil, fmt.Errorf("core: K must be positive, got %d", opt.K)
	}
	return search(t, q, opt)
}

// search is the one branch-and-bound loop behind RSTkNN and
// MultiRSTkNN: it seeds the frontier with the root's children, drains it
// in rounds, and sums the workers' accumulators into the query's
// Outcome.
func search(t *iurtree.Snapshot, q Query, opt Options) (*Outcome, error) {
	if opt.Alpha < 0 || opt.Alpha > 1 {
		return nil, fmt.Errorf("core: Alpha must be in [0,1], got %g", opt.Alpha)
	}
	if err := checkCtx(opt.Ctx); err != nil {
		return nil, err
	}
	out := &Outcome{}
	if t.Len() == 0 {
		return out, nil
	}

	s := &searcher{tree: t, opt: opt, q: q}
	ws := make([]*worker, effectiveWorkers(opt.Workers))
	for i := range ws {
		ws[i] = s.newWorker()
	}
	// Scratches are recycled only after the frontier is fully drained
	// and every worker harvested: a candidate built by one worker may
	// reference arena-backed bounds owned by another until it is decided.
	defer func() {
		for _, w := range ws {
			w.release()
		}
	}()

	frontier, err := s.seed(ws[0])
	if err != nil {
		return nil, err
	}
	if err := runRounds(ws, frontier); err != nil {
		return nil, err
	}

	for _, w := range ws {
		out.Metrics.add(&w.metrics)
		out.Metrics.ExactSims += w.scorer.ExactCount
		out.Metrics.BoundEvals += w.scorer.BoundCount
		out.Results = append(out.Results, w.results...)
	}
	sort.Slice(out.Results, func(i, j int) bool { return out.Results[i] < out.Results[j] })
	return out, nil
}

// searcher is the read-only context of one traversal, shared by its
// workers.
type searcher struct {
	tree *iurtree.Snapshot
	opt  Options
	q    Query
}

// worker owns everything one goroutine touches while deciding candidates:
// a private Scorer (so similarity counters need no synchronization), a
// pooled scratch, and private result/metric accumulators. All
// cross-worker aggregates are sums or sets, so the merge is
// order-independent and the outcome identical at every worker count.
type worker struct {
	s       *searcher
	scorer  Scorer
	scratch *scratch
	metrics Metrics
	results []int32
}

// newWorker prepares one worker for the searcher.
func (s *searcher) newWorker() *worker {
	return &worker{
		s:       s,
		scorer:  *NewScorer(s.opt.Alpha, s.tree.MaxD(), s.opt.Sim),
		scratch: getScratch(),
	}
}

// release recycles the worker's scratch. Call only after the frontier is
// fully drained AND the worker's accumulators have been harvested.
func (w *worker) release() {
	w.scratch.release()
	w.scratch = nil
}

// readNode fetches a node's shared decode (see
// iurtree.Snapshot.ReadSharedTracked) and counts the logical read. The
// node is immutable: candidates and contributors point into its entries
// for the rest of the query.
func (w *worker) readNode(id storage.NodeID) (*iurtree.Node, error) {
	if err := checkCtx(w.s.opt.Ctx); err != nil {
		return nil, err
	}
	n, err := w.s.tree.ReadSharedTracked(id, w.s.opt.Tracker)
	if err != nil {
		return nil, err
	}
	w.metrics.NodesRead++
	return n, nil
}

// seed reads the root node and returns its children as the first
// frontier, every cluster group undecided, each child contributing to
// the others.
func (s *searcher) seed(w *worker) ([]*candidate, error) {
	root := s.tree.RootEntry()
	n, err := w.readNode(root.Child)
	if err != nil {
		return nil, err
	}
	if root.Count == 1 {
		// A single object: it has no neighbors, so the k-th NN similarity
		// is -Inf and the object is a result of every query.
		w.metrics.Candidates++
		w.results = append(w.results, n.Entries[0].ObjID)
		return nil, nil
	}
	// The pseudo parent groups carry empty contribution lists and are
	// never mutated by expand.
	seeds := make([]*group, 0, len(root.Clusters)+1)
	if s.tree.Clustered() && len(root.Clusters) > 0 {
		for _, cs := range root.Clusters {
			seeds = append(seeds, &group{cluster: cs.Cluster})
		}
	} else {
		seeds = append(seeds, &group{cluster: -1})
	}
	return w.expand(&root, n, seeds), nil
}

// minFanoutRound is the smallest frontier size a round fans out across
// the worker pool; smaller rounds run inline on worker 0. The tail of a
// search is many rounds of a handful of candidates each, and paying a
// goroutine spawn plus a barrier per tiny round is why the pinned
// baseline showed Workers=2 running 0.93x sequential on a 1-CPU machine.
const minFanoutRound = 8

// runRounds drains the frontier: the whole frontier is processed per
// round, with candidates fanned across the worker pool by an atomic
// counter, and children merged back in frontier order. Every (query,
// group) verdict depends only on its own contribution list — never on
// another candidate or on processing order — so the only coordination is
// the round barrier, and the outcome is identical at every worker count.
// The error returned is the first by frontier position.
func runRounds(ws []*worker, first []*candidate) error {
	round := first
	for len(round) > 0 {
		children := make([][]*candidate, len(round))
		errs := make([]error, len(round))
		if len(ws) == 1 || len(round) < minFanoutRound {
			// A sequential pool or a small frontier: goroutine spawn plus
			// the round barrier cost more than the candidates' work, so
			// run them inline on worker 0.
			for j := range round {
				children[j], errs[j] = ws[0].process(round[j])
			}
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			spawn := len(ws)
			if spawn > len(round) {
				spawn = len(round)
			}
			for i := 0; i < spawn; i++ {
				wg.Add(1)
				go func(w *worker) {
					defer wg.Done()
					for {
						j := int(next.Add(1)) - 1
						if j >= len(round) {
							return
						}
						children[j], errs[j] = w.process(round[j])
					}
				}(ws[i])
			}
			wg.Wait()
		}
		var next []*candidate
		for i := range children {
			if errs[i] != nil {
				return errs[i]
			}
			next = append(next, children[i]...)
		}
		round = next
	}
	return nil
}

// clusterGroupOf returns the child's cluster summary matching the parent
// group's cluster, or nil when the child holds no such objects. For
// whole-node groups (cluster -1) it synthesizes a summary covering the
// entire entry.
func clusterGroupOf(e *iurtree.Entry, cluster int32) *iurtree.ClusterSummary {
	if cluster < 0 {
		return &iurtree.ClusterSummary{Cluster: -1, Count: e.Count, Env: e.Env}
	}
	for i := range e.Clusters {
		if e.Clusters[i].Cluster == cluster {
			return &e.Clusters[i]
		}
	}
	return nil
}

// contribHeadroom is the arena growth slack reserved on every new
// contribution list so in-place refinement appends (which replace one
// contributor with a node's children) usually stay inside the carve.
const contribHeadroom = 8

// expand turns an expanded node into the next frontier: the parent's
// undecided groups are projected onto the node's entries, and every
// child entry that keeps a group becomes one candidate, in entry order.
// Each parent group is projected onto every child that holds objects of
// its cluster; the child group inherits the parent group's contribution
// list and gains the child's siblings as contributors. The candidates
// and the contributors point into the node's shared entries.
//
// Inherited and sibling bounds are kept at parent/node granularity and
// marked stale — valid for the group because its objects are a subset of
// what the bounds cover — and are tightened lazily when the group is
// processed, keeping expansion cost linear in the fan-out. The child
// holds that list by reference (see inherited) until its first rebound,
// so a group decided on its inherited bounds never copies them.
//
// The new groups (and the arena-backed bounds they reference) are only
// published to other workers through the round barrier, so the
// scratch-owning worker is the sole writer until then.
func (w *worker) expand(parent *iurtree.Entry, n *iurtree.Node, pending []*group) []*candidate {
	q := &w.s.q
	children := n.Entries
	out := make([]*candidate, 0, len(children))
	var sibParts [][]part // filled on first use, shared by all groups
	for i := range children {
		child := &children[i]
		var groups []*group
		for _, pg := range pending {
			cs := clusterGroupOf(child, pg.cluster)
			if cs == nil || cs.Count == 0 {
				continue
			}
			if sibParts == nil {
				sibParts = w.siblingParts(parent, children)
			}
			g := &group{
				cluster: pg.cluster,
				env:     cs.Env,
				count:   cs.Count,
			}
			gSide := side{rect: child.Rect, env: &g.env, exact: child.IsObject()}
			g.q = w.scorer.queryBounds(gSide, q)
			g.cl.self = w.scorer.selfPartsInto(w.scratch, child, pg.cluster, cs.Env, cs.Count)
			// pg was expanded, so its first rebound materialized its list.
			g.cl.inh = inherited{parent: pg.cl.contributors, siblings: children, sibParts: sibParts, own: i}
			groups = append(groups, g)
		}
		if len(groups) > 0 {
			out = append(out, &candidate{entry: child, groups: groups})
		}
	}
	return out
}

// siblingParts bounds every entry of an expanded node against the parent
// entry, in one pass over the parent's scattered union vector. The
// result is carved from the scratch arena: the child groups' inherited
// lists reference it until the query ends.
//
//rstknn:hotpath one pass per expansion
func (w *worker) siblingParts(parent *iurtree.Entry, children []iurtree.Entry) [][]part {
	parentSide := sideOf(parent)
	out := w.scratch.sibParts.alloc(len(children))
	w.scratch.kern.Load(parentSide.env.Uni)
	for j := range children {
		out = append(out, w.scorer.entryBoundsInto(w.scratch, parentSide, &children[j]))
	}
	w.scratch.kern.Clear()
	return out
}

// verdict is the outcome of deciding one group.
type verdict int

const (
	verdictPruned verdict = iota
	verdictReported
	verdictExpand
)

// process drives a candidate's groups to a decision, then — if any
// group still needs the subtree — expands the entry with one node read
// and returns the resulting child candidates.
func (w *worker) process(c *candidate) ([]*candidate, error) {
	undecided, err := w.decideAll(c.entry, c.groups)
	if err != nil || len(undecided) == 0 {
		return nil, err
	}
	n, err := w.readNode(c.entry.Child)
	if err != nil {
		return nil, err
	}
	return w.expand(c.entry, n, undecided), nil
}

// decideAll decides the groups of entry e, settling every pruned or
// reported group and returning the ones left to expand.
func (w *worker) decideAll(e *iurtree.Entry, groups []*group) ([]*group, error) {
	var undecided []*group
	for _, g := range groups {
		v, err := w.decideGroup(e, g)
		if err != nil {
			return nil, err
		}
		if v == verdictExpand {
			undecided = append(undecided, g)
			continue
		}
		if err := w.settle(e, g, v); err != nil {
			return nil, err
		}
	}
	return undecided, nil
}

// settle applies one decided group's verdict: the metrics bookkeeping,
// result emission, and subtree collection.
func (w *worker) settle(e *iurtree.Entry, g *group, v verdict) error {
	switch v {
	case verdictPruned:
		if e.IsObject() {
			w.metrics.Candidates++
		} else {
			w.metrics.GroupPruned += int(g.count)
		}
	case verdictReported:
		if e.IsObject() {
			w.metrics.Candidates++
			w.results = append(w.results, e.ObjID)
		} else {
			w.metrics.GroupReported += int(g.count)
			return w.collect(e, g.cluster)
		}
	}
	return nil
}

// decideGroup evaluates one group against the two pruning rules,
// tightening its contribution list in two tiers: *rebounds* recompute the
// stale inherited bounds against this group (pure CPU), *refinements*
// replace a contributor node with its children (one node read each).
// Object-level groups always reach a decision; internal groups may return
// verdictExpand once rebounds and the refinement budget are exhausted.
//
// The rules are decided by ruleCounts against the group's query interval,
// which is fixed for the whole loop: the list is counted once, and every
// rebound and refinement then updates the counts by the parts it changes.
func (w *worker) decideGroup(e *iurtree.Entry, g *group) (verdict, error) {
	k := w.s.opt.K
	groupBudget := w.s.opt.GroupRefine
	gSide := side{rect: e.Rect, env: &g.env, exact: e.IsObject()}
	rc := g.cl.ruleCounts(g.q)
	for {
		if rc.prunes(k) {
			w.traceBounds(e, g)
			return verdictPruned, nil
		}
		if rc.reports(k) {
			w.traceBounds(e, g)
			return verdictReported, nil
		}
		// Tier 1: make inherited bounds group-relative (pure CPU).
		// Loose ancestor-level lower bounds keep kNNL artificially low,
		// so they are tightened the first time the group turns out to
		// be undecided, nearest contributors first, until the group is
		// decided or none is left stale.
		if w.reboundStale(gSide, &g.cl, &rc, k) {
			continue
		}
		if e.IsObject() {
			// Undecided object: refine its contribution list. The loop
			// is guaranteed to decide once every contributor is a fresh
			// object, because then every part and the query interval are
			// exact, nlo == nhi, and the two rules are exhaustive.
			idx := w.refinable(&g.cl)
			if idx < 0 {
				knnl, knnu := g.cl.knnBounds(w.scratch, k)
				return 0, fmt.Errorf("core: undecidable object %d with exact bounds [%g, %g], query %g",
					e.ObjID, knnl, knnu, g.q.lo)
			}
			if err := w.refine(gSide, &g.cl, idx, &rc); err != nil {
				return 0, err
			}
			continue
		}
		if groupBudget > 0 {
			if idx := w.refinable(&g.cl); idx >= 0 {
				groupBudget--
				if err := w.refine(gSide, &g.cl, idx, &rc); err != nil {
					return 0, err
				}
				continue
			}
		}
		return verdictExpand, nil
	}
}

// traceBounds reports a decided object's final kNN bounds to
// Options.BoundTrace, the one decision path that still selects them.
func (w *worker) traceBounds(e *iurtree.Entry, g *group) {
	if e.IsObject() && w.s.opt.BoundTrace != nil {
		knnl, knnu := g.cl.knnBounds(w.scratch, w.s.opt.K)
		w.s.opt.BoundTrace(e.ObjID, knnl, knnu)
	}
}

// refinable returns the index of the contributor the query's strategy
// refines next, or -1 when none is left. Only E-CIUR needs kNNU. The
// list is materialized: decideGroup rebounds before it refines.
func (w *worker) refinable(cl *contributionList) int {
	if w.s.opt.Strategy == RefineByEntropy {
		knnu := cl.knnu(w.scratch, w.s.opt.K)
		return cl.refinableByEntropy(w.scratch, w.s.tree.NumClusters(), knnu)
	}
	return cl.refinableByMaxUpper()
}

// reboundStale recomputes stale contributors' bounds against the group
// itself (they were inherited from an ancestor) until the group is
// decided for rank cutoff k or none is left stale. No I/O. Returns true
// when anything changed.
//
// The walk runs from the end of the list: the expanded node's siblings,
// the group's nearest entries, come first, then the parent group's
// contributors from its latest refinements back. After each rebound rc
// holds the counts of the partly tightened list, so checking the two
// rules costs O(1), and the walk stops as soon as one holds. The
// contributors it did not reach keep their stale parts, which are still
// valid bounds for the group. A fresh part is never looser than the
// stale part it replaces, so nlo can only grow and nhi only shrink along
// the walk: a verdict reached early is the one the whole pass would
// reach, and an undecided group ends the pass with every contributor
// fresh, as before.
//
// The fresh parts replace the inherited slice (which may be shared with
// sibling groups) — they never mutate it. rc trades each contributor's
// old parts for its new ones. A list still held by reference is
// materialized first. The pass scatters the group's union vector once,
// and only when some contributor is stale. A pass that reaches the
// list's start marks it fresh, so the calls decideGroup makes after
// each later refinement, which adds only fresh contributors, return at
// once.
//
//rstknn:hotpath one pass per undecided group
func (w *worker) reboundStale(gSide side, cl *contributionList, rc *ruleCounts, k int) bool {
	if cl.fresh {
		return false
	}
	cl.materialize(w.scratch)
	loaded := false
	i := len(cl.contributors) - 1
	for ; i >= 0; i-- {
		ct := &cl.contributors[i]
		if !ct.stale {
			continue
		}
		if !loaded {
			w.scratch.kern.Load(gSide.env.Uni)
			loaded = true
		}
		rc.sub(ct.parts)
		ct.parts = w.scorer.entryBoundsInto(w.scratch, gSide, ct.entry)
		rc.add(ct.parts)
		ct.stale = false
		w.metrics.Rebounds++
		if rc.prunes(k) || rc.reports(k) {
			break
		}
	}
	cl.fresh = i <= 0
	if loaded {
		w.scratch.kern.Clear()
	}
	return loaded
}

// refine replaces contributor idx with its children, re-bounded against
// the group, keeping rc counting the list. The new contributors point
// into the child node's shared entries. The replacement buffer is
// scratch-owned: replace() copies it into the contribution list, so it
// is reusable immediately.
func (w *worker) refine(gSide side, cl *contributionList, idx int, rc *ruleCounts) error {
	n, err := w.readNode(cl.contributors[idx].entry.Child)
	if err != nil {
		return err
	}
	w.metrics.Refinements++
	w.scratch.repl = w.boundChildren(gSide, n.Entries, w.scratch.repl[:0])
	cl.replace(w.scratch, idx, w.scratch.repl, rc)
	w.scratch.repl = w.scratch.repl[:0]
	return nil
}

// boundChildren appends the fresh contributors of a refined node's
// entries, bounded against the group in one pass over its scattered
// union vector.
//
//rstknn:hotpath one pass per contributor refinement
func (w *worker) boundChildren(gSide side, children []iurtree.Entry, repl []contributor) []contributor {
	w.scratch.kern.Load(gSide.env.Uni)
	for i := range children {
		repl = append(repl, newContributor(&children[i], w.scorer.entryBoundsInto(w.scratch, gSide, &children[i]), false)) //rstknn:allow hotalloc scratch replacement buffer, capacity is reused once warm
	}
	w.scratch.kern.Clear()
	return repl
}

// collect appends the object IDs below e belonging to the given cluster
// (every object when cluster < 0) to the result set, reading the subtree
// (the I/O is charged like any other access).
func (w *worker) collect(e *iurtree.Entry, cluster int32) error {
	if e.IsObject() {
		w.results = append(w.results, e.ObjID)
		return nil
	}
	return w.collectNode(e.Child, cluster)
}

// collectNode is collect below one node: only entries passing the
// cluster filter are reported or recursed into.
func (w *worker) collectNode(id storage.NodeID, cluster int32) error {
	n, err := w.readNode(id)
	if err != nil {
		return err
	}
	for i := range n.Entries {
		e := &n.Entries[i]
		if cluster >= 0 && clusterCountIn(e.Clusters, cluster) == 0 {
			continue
		}
		if e.IsObject() {
			w.results = append(w.results, e.ObjID)
			continue
		}
		if err := w.collectNode(e.Child, cluster); err != nil {
			return err
		}
	}
	return nil
}

// clusterCountIn returns the number of objects of the given cluster
// among the summaries.
func clusterCountIn(clusters []iurtree.ClusterSummary, cluster int32) int32 {
	for i := range clusters {
		if clusters[i].Cluster == cluster {
			return clusters[i].Count
		}
	}
	return 0
}
