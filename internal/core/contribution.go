package core

import (
	"rstknn/internal/cluster"
	"rstknn/internal/iurtree"
)

// contributor is one element of a candidate's contribution list: a tree
// entry (node or object) outside the candidate's subtree together with
// similarity bounds of its objects against the candidate's objects. A
// clustered contributor carries one part per cluster.
//
// Bounds are inherited lazily: when a candidate is created by expanding
// its parent, contributors keep the parts computed against the parent (or
// an even higher ancestor). Those bounds remain *valid* for the child —
// every object below the child is also below the parent — just looser,
// so they are marked stale. The search re-tightens stale contributors
// against the candidate only once their inherited bounds fail to decide
// it, nearest contributors first, and stops as soon as it is decided
// (see worker.reboundStale). A group decided on inherited bounds costs
// no rebound at all, which keeps expansion cost linear in the fan-out
// instead of quadratic.
//
// A contributor references its entry rather than copying it: entry points
// into the shared decode of the node read that produced it (immutable,
// see iurtree.Snapshot.ReadSharedTracked), and parts at a carve of the
// parts arena. At 40 bytes, building, growing and copying contribution
// lists moves a fifth of what an embedded Entry did.
type contributor struct {
	entry *iurtree.Entry
	parts []part
	// stale marks parts computed against an ancestor of the candidate
	// rather than the candidate itself. Rebinding (recomputing parts
	// against the candidate) is pure CPU — no I/O.
	stale bool
	// isObject caches entry.IsObject() in the struct's padding, so the
	// refinement scans skip fresh objects without loading the entry.
	isObject bool
}

// newContributor returns the contributor of entry e with the given parts.
//
//rstknn:hotpath one call per contributor built by rebinding, refinement or materializing
func newContributor(e *iurtree.Entry, parts []part, stale bool) contributor {
	return contributor{entry: e, parts: parts, stale: stale, isObject: e.IsObject()}
}

// maxHi returns the largest upper bound among the contributor's parts.
func (c *contributor) maxHi() float64 {
	hi := negInf
	for _, p := range c.parts {
		if p.count > 0 && p.hi > hi {
			hi = p.hi
		}
	}
	return hi
}

// contributionList is the candidate-relative list plus the candidate's
// self contribution. It answers the two questions the pruning rules ask:
// kNNL (a lower bound on the k-th NN similarity of every object below the
// candidate) and kNNU (the matching upper bound).
//
// A child group's list starts out held by reference (inh), not copied:
// most groups are decided on their inherited bounds alone, so copying
// the list would be wasted work. ruleCounts counts through the
// reference, and every path that needs the list itself (the first
// rebound among them) calls materialize, which copies it, stale, into a
// new carve.
type contributionList struct {
	contributors []contributor
	self         []part
	inh          inherited
	// fresh is true only when no contributor is stale: a rebound pass
	// that reached the list's start sets it, and replace clears it when
	// it adds a stale contributor. While it holds, reboundStale returns
	// at once instead of scanning the list for a stale flag.
	fresh bool
}

// inherited is a child group's contribution list by reference: every
// contributor of the parent group, then every sibling j != own of the
// expanded node's entries, with the sibling parts of the expansion —
// all stale. The order is the one the list would have if copied:
// refinableByMaxUpper breaks ties by index and reboundStale walks the
// list from its end, so it must not change.
// While siblings is nil the list is held in contributors instead.
type inherited struct {
	parent   []contributor
	siblings []iurtree.Entry
	sibParts [][]part
	own      int
}

// lazy reports whether the list is still held by reference.
func (h *inherited) lazy() bool { return h.siblings != nil }

// len returns the number of contributors the reference stands for.
func (h *inherited) len() int { return len(h.parent) + len(h.siblings) - 1 }

// materialize copies a list held by reference into a contributor carve,
// keeping every inherited contributor stale. A materialized list is left
// as it is.
func (cl *contributionList) materialize(sc *scratch) {
	h := &cl.inh
	if !h.lazy() {
		return
	}
	out := allocContribs(sc, h.len(), contribHeadroom)
	for i := range h.parent {
		out = append(out, newContributor(h.parent[i].entry, h.parent[i].parts, true))
	}
	for j := range h.siblings {
		if j != h.own {
			out = append(out, newContributor(&h.siblings[j], h.sibParts[j], true))
		}
	}
	cl.contributors = out
	*h = inherited{}
}

// ruleCounts decides the two pruning rules for one fixed query interval
// q by counting instead of selecting. With kNNL the k-th largest part
// lower bound and kNNU the k-th largest upper bound (each weighted by
// part count, -Inf when fewer than k neighbors exist):
//
//	Rule 1, q.hi < kNNL   iff  nlo >= k, nlo = count of parts with lo > q.hi
//	Rule 2, q.lo >= kNNU  iff  nhi < k,  nhi = count of parts with hi > q.lo
//
// The k-th largest value exceeds a threshold exactly when at least k
// values do, and with fewer than k neighbors in total neither count can
// reach k, which is the -Inf convention. Both equivalences need non-NaN
// bounds, which a validated tree guarantees.
//
// The counts are int64 sums of int32 part counts, so subtracting the
// parts a contributor loses and adding the ones it gains keeps them
// exact: a pruning check costs O(parts changed), not O(list). A nil
// *ruleCounts keeps no counts; add and sub are then no-ops.
type ruleCounts struct {
	q        interval
	nlo, nhi int64
}

// ruleCounts counts the whole list against q.
//
//rstknn:hotpath one full count per decideGroup call
func (cl *contributionList) ruleCounts(q interval) ruleCounts {
	rc := ruleCounts{q: q}
	rc.add(cl.self)
	for i := range cl.contributors {
		rc.add(cl.contributors[i].parts)
	}
	h := &cl.inh
	for i := range h.parent {
		rc.add(h.parent[i].parts)
	}
	for j := range h.sibParts {
		if j != h.own {
			rc.add(h.sibParts[j])
		}
	}
	return rc
}

// add counts parts that joined the list.
//
//rstknn:hotpath one call per new contribution part during refinement and rebinding
func (rc *ruleCounts) add(ps []part) { rc.tally(ps, 1) }

// sub uncounts parts that left the list.
//
//rstknn:hotpath one call per replaced contribution part during refinement and rebinding
func (rc *ruleCounts) sub(ps []part) { rc.tally(ps, -1) }

func (rc *ruleCounts) tally(ps []part, sign int64) {
	if rc == nil {
		return
	}
	for _, p := range ps {
		if p.count <= 0 {
			continue
		}
		c := sign * int64(p.count)
		if p.lo > rc.q.hi {
			rc.nlo += c
		}
		if p.hi > rc.q.lo {
			rc.nhi += c
		}
	}
}

// prunes reports Rule 1: the query can never reach any member's top-k.
//
//rstknn:hotpath read once per pruning check
func (rc *ruleCounts) prunes(k int) bool { return rc.nlo >= int64(k) }

// reports reports Rule 2: the query ranks within every member's top-k.
//
//rstknn:hotpath read once per pruning check
func (rc *ruleCounts) reports(k int) bool { return rc.nhi < int64(k) }

// knnBounds computes (kNNL, kNNU) for the given k with sc's selectors (or
// fresh ones when sc is nil). The pruning rules never need the values —
// ruleCounts decides them — so this runs only for BoundTrace and error
// reports.
//
// kNNL: every object below the candidate has, for contribution part p,
// p.count neighbors with similarity >= p.lo. Sorting parts by lo
// descending and accumulating counts, the lo at which the running count
// first reaches k is a valid lower bound of the k-th NN similarity.
//
// kNNU mirrors the construction over hi: the k-th largest element of the
// multiset of upper bounds dominates the k-th largest true similarity.
//
// When fewer than k neighbors exist in total both bounds are -Inf: the
// k-th NN does not exist, so any query similarity qualifies.
func (cl *contributionList) knnBounds(sc *scratch, k int) (knnl, knnu float64) {
	cl.materialize(sc)
	lo, hi := new(kthSelector), new(kthSelector)
	if sc != nil {
		lo, hi = &sc.selLo, &sc.selHi
	}
	lo.reset(k)
	hi.reset(k)
	cl.knnBoundsInto(lo, hi)
	return lo.kth(), hi.kth()
}

// knnu computes kNNU alone with sc's upper selector, for the E-CIUR
// relevance test.
func (cl *contributionList) knnu(sc *scratch, k int) float64 {
	cl.materialize(sc)
	sc.selHi.reset(k)
	cl.selectInto(&sc.selHi, true)
	return sc.selHi.kth()
}

// knnBoundsInto is the allocation-conscious form: the selectors are reset
// by the caller and filled here; callers reuse them across calls.
//
//rstknn:hotpath kNN bounds of every traced object decision
func (cl *contributionList) knnBoundsInto(lo, hi *kthSelector) {
	cl.selectInto(lo, false)
	cl.selectInto(hi, true)
}

// selectInto feeds every part's upper (upper) or lower bound into s.
//
//rstknn:hotpath kNNU of every E-CIUR refinement choice
func (cl *contributionList) selectInto(s *kthSelector, upper bool) {
	s.addParts(cl.self, upper)
	for i := range cl.contributors {
		s.addParts(cl.contributors[i].parts, upper)
	}
}

// kthSelector computes the k-th largest value of a weighted multiset in
// one streaming pass. It keeps a min-heap of the largest values whose
// cumulative count reaches k, evicting the minimum whenever the rest
// still covers k; the heap therefore holds at most k entries and add is
// O(1) for the common case of a value below the current k-th.
type kthSelector struct {
	k      int64
	total  int64 // count sum over all added values (including evicted)
	kept   int64 // count sum over heap entries
	vals   []float64
	counts []int64
}

// reset prepares the selector for a fresh selection of the k-th largest.
//
//rstknn:hotpath selector reuse across E-CIUR kNNU and BoundTrace selections
func (s *kthSelector) reset(k int) {
	s.k = int64(k)
	s.total = 0
	s.kept = 0
	s.vals = s.vals[:0]
	s.counts = s.counts[:0]
}

// add feeds `count` copies of val into the multiset.
//
//rstknn:hotpath one call per contribution part per selection
func (s *kthSelector) add(val float64, count int32) {
	c := int64(count)
	s.total += c
	// Fast path: the heap already covers k with values >= val, so val can
	// never be the k-th largest.
	if s.kept >= s.k && len(s.vals) > 0 && val <= s.vals[0] {
		return
	}
	// Push (val, c). The heaps hold at most k entries, so after a warm
	// first selection the appends below reuse existing capacity.
	s.vals = append(s.vals, val)   //rstknn:allow hotalloc amortized heap growth, capacity is reused once warm
	s.counts = append(s.counts, c) //rstknn:allow hotalloc amortized heap growth, capacity is reused once warm
	s.kept += c
	i := len(s.vals) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.vals[parent] <= s.vals[i] {
			break
		}
		s.vals[parent], s.vals[i] = s.vals[i], s.vals[parent]
		s.counts[parent], s.counts[i] = s.counts[i], s.counts[parent]
		i = parent
	}
	// Evict minima no longer needed to cover k.
	for len(s.vals) > 0 && s.kept-s.counts[0] >= s.k {
		s.kept -= s.counts[0]
		s.popMin()
	}
}

// addParts feeds each part's upper (upper) or lower bound, weighted by
// its count, skipping empty parts.
func (s *kthSelector) addParts(ps []part, upper bool) {
	for _, p := range ps {
		if p.count <= 0 {
			continue
		}
		if upper {
			s.add(p.hi, p.count)
		} else {
			s.add(p.lo, p.count)
		}
	}
}

func (s *kthSelector) popMin() {
	last := len(s.vals) - 1
	s.vals[0], s.counts[0] = s.vals[last], s.counts[last]
	s.vals = s.vals[:last]
	s.counts = s.counts[:last]
	i := 0
	n := len(s.vals)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && s.vals[l] < s.vals[m] {
			m = l
		}
		if r < n && s.vals[r] < s.vals[m] {
			m = r
		}
		if m == i {
			return
		}
		s.vals[m], s.vals[i] = s.vals[i], s.vals[m]
		s.counts[m], s.counts[i] = s.counts[i], s.counts[m]
		i = m
	}
}

// kth returns the k-th largest value seen, or -Inf when fewer than k
// values were added in total.
//
//rstknn:hotpath read once per selection
func (s *kthSelector) kth() float64 {
	if s.total < s.k || len(s.vals) == 0 {
		return negInf
	}
	return s.vals[0]
}

// Refinement choice. refinableByMaxUpper and refinableByEntropy return
// the index of the contributor the strategy wants to tighten next, or -1
// when every contributor is a fresh object entry (bounds are exact).
// Stale contributors (any kind) qualify for a free rebound; fresh
// internal nodes qualify for an I/O refinement.
//
// Only contributors that can influence the pending decision are worth
// tightening: lowering kNNU requires shrinking a contributor whose upper
// bound currently occupies one of the top-k slots (maxHi >= kNNU). The
// strategy ranks within that decision-relevant set; when no contributor
// reaches kNNU (the bound is held by exact parts), the loosest remaining
// contributor is chosen so kNNL keeps improving.

// refinableByMaxUpper picks the contributor with the largest upper bound,
// ties broken by the larger subtree and then by the first index. Its
// relevance test maxHi >= kNNU is a threshold on its own sort key, so the
// overall argmax is relevant whenever any contributor is: the ranking
// needs no kNNU at all.
func (cl *contributionList) refinableByMaxUpper() int {
	best := -1
	bestHi, bestCount := negInf, int32(0)
	for i := range cl.contributors {
		c := &cl.contributors[i]
		if !c.stale && c.isObject {
			continue // already exact
		}
		hi := c.maxHi()
		if best == -1 || hi > bestHi ||
			(hi == bestHi && c.entry.Count > bestCount) { //rstknn:allow floatcmp exact tie on the refinement key falls through to the secondary criterion
			best, bestHi, bestCount = i, hi, c.entry.Count
		}
	}
	return best
}

// refinableByEntropy ranks the decision-relevant contributors (maxHi >=
// knnu) by textual entropy, ties broken by the upper bound: the E-CIUR
// optimization, since mixed contributors have the loosest envelopes, so
// tightening them moves the bounds furthest. Entropy is not monotone in
// the upper bound, so unlike refinableByMaxUpper it needs kNNU.
//
// The entropy histogram comes from sc (a fresh one when sc is nil), so the
// warm E-CIUR path allocates nothing.
func (cl *contributionList) refinableByEntropy(sc *scratch, numClusters int, knnu float64) int {
	hist := sc.clusterHist(numClusters)
	best := -1
	bestKey, bestTie := negInf, negInf
	bestRelevant := false
	for i := range cl.contributors {
		c := &cl.contributors[i]
		if !c.stale && c.isObject {
			continue // already exact
		}
		hi := c.maxHi()
		relevant := hi >= knnu
		if bestRelevant && !relevant {
			continue // never prefer an irrelevant contributor over a relevant one
		}
		key := clusterEntropy(c.entry, hist)
		if best == -1 || (relevant && !bestRelevant) ||
			key > bestKey || (key == bestKey && hi > bestTie) { //rstknn:allow floatcmp exact tie on the refinement key falls through to the secondary criterion
			best, bestKey, bestTie, bestRelevant = i, key, hi, relevant
		}
	}
	return best
}

// clusterEntropy returns cluster.Entropy(e.ClusterCounts(len(hist)))
// without allocating: hist is a zeroed buffer of one count per cluster,
// filled from e's summaries and zeroed again before returning. Entropy
// then sums in ascending cluster-ID order, as over ClusterCounts, while
// e.Clusters is in first-seen order; summing over it directly could
// change the float and with it the refinement order.
func clusterEntropy(e *iurtree.Entry, hist []int) float64 {
	if len(e.Clusters) == 0 {
		return 0
	}
	for _, cs := range e.Clusters {
		if int(cs.Cluster) < len(hist) {
			hist[cs.Cluster] = int(cs.Count)
		}
	}
	h := cluster.Entropy(hist)
	for _, cs := range e.Clusters {
		if int(cs.Cluster) < len(hist) {
			hist[cs.Cluster] = 0
		}
	}
	return h
}

// replace substitutes the contributor at index i with the given
// replacements (its children, with candidate-relative bounds). When the
// grown list no longer fits its arena carve the list is moved to a fresh
// carve with geometric headroom instead of letting append spill to the
// heap: refinement calls replace hundreds of times per query, and the
// spilled copies used to dominate the whole query's allocation profile.
// rc, when non-nil, is kept counting the list: the replaced contributor's
// parts leave it and the replacements' parts join it.
//
//rstknn:hotpath one call per contributor refinement
func (cl *contributionList) replace(sc *scratch, i int, repl []contributor, rc *ruleCounts) {
	rc.sub(cl.contributors[i].parts)
	for j := range repl {
		rc.add(repl[j].parts)
		cl.fresh = cl.fresh && !repl[j].stale
	}
	last := len(cl.contributors) - 1
	cl.contributors[i] = cl.contributors[last]
	cl.contributors = cl.contributors[:last]
	if need := last + len(repl); need > cap(cl.contributors) {
		grown := allocContribs(sc, need, need/2)
		grown = append(grown, cl.contributors...)
		cl.contributors = grown
	}
	cl.contributors = append(cl.contributors, repl...)
}
