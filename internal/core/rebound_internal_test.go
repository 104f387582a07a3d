package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rstknn/internal/cluster"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// reboundStale stops as soon as the group is decided and leaves the
// contributors it did not reach stale. That is sound, and gives the
// verdict the whole pass would give, because a rebound never loosens a
// part. These tests check both facts on every group real searches
// meet, on an IUR-tree and on a CIUR-tree.

// reboundCheck tallies the rebound passes a search met.
type reboundCheck struct {
	passes, early int
}

// verdictOf decides the rules in decideGroup's order.
func verdictOf(rc *ruleCounts, k int) verdict {
	switch {
	case rc.prunes(k):
		return verdictPruned
	case rc.reports(k):
		return verdictReported
	default:
		return verdictExpand
	}
}

// tighter reports whether every part of cur is at least as tight as
// the stale part of old it replaced, cluster part by cluster part.
func tighter(old, cur []part) error {
	if len(old) != len(cur) {
		return fmt.Errorf("%d parts replaced by %d", len(old), len(cur))
	}
	for j := range cur {
		if cur[j].count != old[j].count || cur[j].lo < old[j].lo || cur[j].hi > old[j].hi {
			return fmt.Errorf("part %d: stale [%g, %g] x%d, fresh [%g, %g] x%d",
				j, old[j].lo, old[j].hi, old[j].count, cur[j].lo, cur[j].hi, cur[j].count)
		}
	}
	return nil
}

// check runs one rebound pass on a copy of g's list, leaving g as it
// is for the search. Every part the pass writes must be tighter than the
// stale part it replaced. When the pass stopped with contributors still
// stale the group must be decided, and finishing the pass must keep
// every part tighter and the verdict the same.
func (rk *reboundCheck) check(w *worker, e *iurtree.Entry, g *group, k int) error {
	gSide := side{rect: e.Rect, env: &g.env, exact: e.IsObject()}
	cl := g.cl
	cl.contributors = slices.Clone(g.cl.contributors)
	rc := cl.ruleCounts(g.q)
	if verdictOf(&rc, k) != verdictExpand {
		return nil // decided on inherited bounds: no rebound
	}
	cl.materialize(w.scratch)
	before := slices.Clone(cl.contributors)
	if !w.reboundStale(gSide, &cl, &rc, k) {
		return nil // nothing was stale
	}
	rk.passes++
	var left []int
	for i := range cl.contributors {
		old, cur := &before[i], &cl.contributors[i]
		switch {
		case cur.stale:
			left = append(left, i)
		case old.stale:
			if err := tighter(old.parts, cur.parts); err != nil {
				return fmt.Errorf("rebound of contributor %d: %v", i, err)
			}
		}
	}
	if len(left) == 0 {
		return nil
	}
	rk.early++
	early := verdictOf(&rc, k)
	if early == verdictExpand {
		return fmt.Errorf("pass left %d contributors stale on an undecided group", len(left))
	}
	w.scratch.kern.Load(gSide.env.Uni)
	for _, i := range left {
		ct := &cl.contributors[i]
		fresh := w.scorer.entryBoundsInto(w.scratch, gSide, ct.entry)
		if err := tighter(ct.parts, fresh); err != nil {
			return fmt.Errorf("finishing the pass at contributor %d: %v", i, err)
		}
		ct.parts, ct.stale = fresh, false
	}
	w.scratch.kern.Clear()
	full := cl.ruleCounts(g.q)
	if got := verdictOf(&full, k); got != early {
		return fmt.Errorf("verdict %d mid-pass, %d after the whole pass", early, got)
	}
	return nil
}

// searchChecked answers q with the search's own rounds, run on one
// worker, checking every group of every candidate before the worker
// decides it, and returns the results.
func searchChecked(t *testing.T, tree *iurtree.Snapshot, q Query, opt Options, rk *reboundCheck) []int32 {
	t.Helper()
	s := &searcher{tree: tree, opt: opt, q: q}
	w := s.newWorker()
	defer w.release()
	round, err := s.seed(w)
	if err != nil {
		t.Fatal(err)
	}
	for len(round) > 0 {
		var next []*candidate
		for _, c := range round {
			for _, g := range c.groups {
				if err := rk.check(w, c.entry, g, opt.K); err != nil {
					t.Fatalf("entry %d cluster %d: %v", c.entry.Child, g.cluster, err)
				}
			}
			kids, err := w.process(c)
			if err != nil {
				t.Fatal(err)
			}
			next = append(next, kids...)
		}
		round = next
	}
	res := slices.Clone(w.results)
	slices.Sort(res)
	return res
}

func TestReboundEarlyExitKeepsVerdict(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		name := "IUR"
		if clustered {
			name = "CIUR"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(97))
			var rk reboundCheck
			for trial := 0; trial < 6; trial++ {
				objs := wbObjects(rng, 150+rng.Intn(150))
				cfg := iurtree.Config{Store: storage.NewStore()}
				if clustered {
					docs := make([]vector.Vector, len(objs))
					for i := range objs {
						docs[i] = objs[i].Doc
					}
					cfg.Clustering = cluster.Run(docs, cluster.Config{K: 4, Seed: int64(trial)})
				}
				tree, err := iurtree.Build(objs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for qn := 0; qn < 4; qn++ {
					o := objs[rng.Intn(len(objs))]
					q := Query{Loc: o.Loc, Doc: o.Doc}
					opt := Options{K: 1 + rng.Intn(10), Alpha: []float64{0.2, 0.5, 0.8}[rng.Intn(3)], Workers: 1}
					if clustered && rng.Intn(2) == 0 {
						opt.Strategy = RefineByEntropy
					}
					got := searchChecked(t, tree, q, opt, &rk)
					out, err := RSTkNN(tree, q, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, out.Results) {
						t.Fatalf("trial %d query %d: checked search %v, RSTkNN %v", trial, qn, got, out.Results)
					}
				}
			}
			if rk.early == 0 || rk.early == rk.passes {
				t.Fatalf("%d of %d passes stopped early; want some but not all", rk.early, rk.passes)
			}
		})
	}
}

// TestReboundSkipsFreshList: a pass that reaches the list's start marks
// it fresh, and the next call returns without touching it; replace
// clears the mark when it adds a stale contributor, whose rebound the
// next pass then does.
func TestReboundSkipsFreshList(t *testing.T) {
	s, entries := boundFixture(t)
	sc := getScratch()
	defer sc.release()
	w := &worker{scorer: *s, scratch: sc}
	a := &entries[0]
	gSide := sideOf(a)
	inherited := func(j int) contributor {
		return newContributor(&entries[j], boundsInto(s, sc, sideOf(&entries[1]), &entries[j]), true)
	}
	cl := contributionList{self: s.selfPartsInto(sc, a, -1, a.Env, a.Count)}
	for j := 1; j < len(entries); j++ {
		cl.contributors = append(cl.contributors, inherited(j))
	}
	// Every part's upper bound exceeds -1 and no lower bound exceeds 2,
	// so at k = 1 neither rule holds and a pass cannot stop early.
	rc := cl.ruleCounts(interval{lo: -1, hi: 2})
	pass := func(wantRebounds int) {
		t.Helper()
		before := w.metrics.Rebounds
		changed := w.reboundStale(gSide, &cl, &rc, 1)
		if got := w.metrics.Rebounds - before; got != wantRebounds || changed != (wantRebounds > 0) {
			t.Fatalf("pass rebounded %d contributors (changed %v), want %d", got, changed, wantRebounds)
		}
		for i := range cl.contributors {
			if cl.contributors[i].stale {
				t.Fatalf("contributor %d still stale after a whole pass", i)
			}
		}
	}
	pass(len(entries) - 1)
	pass(0)
	cl.replace(sc, 0, []contributor{inherited(2)}, &rc)
	pass(1)
	fresh := inherited(3)
	fresh.stale = false
	cl.replace(sc, 0, []contributor{fresh}, &rc)
	pass(0)
	if want := cl.ruleCounts(rc.q); rc != want {
		t.Errorf("incremental counts %+v, recount %+v", rc, want)
	}
}
