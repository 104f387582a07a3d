package core_test

import (
	"testing"

	"rstknn/internal/baseline"
	"rstknn/internal/cluster"
	"rstknn/internal/core"
	"rstknn/internal/geom"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// fuzzWeights is the small weight palette of the fuzzed collections:
// few distinct weights make equal similarities, and so ties at the k-th
// neighbor, common.
var fuzzWeights = [4]float64{1, 1, 2, 0.5}

// fuzzObject decodes one object from two bytes: the first picks a point
// on an 8x8 grid, the second a non-empty subset of at most three terms
// (low three bits) and each term's weight (the next bits, two per term,
// wrapping). Grid points and shared weights make ties the rule.
func fuzzObject(id int32, pos, text byte) iurtree.Object {
	m := make(map[vector.TermID]float64, 3)
	terms := text & 7
	if terms == 0 {
		terms = 1
	}
	for t := 0; t < 3; t++ {
		if terms&(1<<t) != 0 {
			m[vector.TermID(t)] = fuzzWeights[(int(text>>3)>>(2*t))&3]
		}
	}
	return iurtree.Object{
		ID:  id,
		Loc: geom.Point{X: float64(pos & 7), Y: float64((pos >> 3) & 7)},
		Doc: vector.New(m),
	}
}

// FuzzSearchMatchesNaive is the differential check of the whole search:
// on tie-heavy collections it runs RSTkNN over an IUR- or CIUR-tree with
// EJ or cosine, α in {0, ¼, ½, 1}, k from 1 to 8 and 1 to 3 workers,
// and requires exactly baseline.Naive's answer. data holds the objects,
// two bytes each (see fuzzObject), and then the query's two bytes;
// knobs picks the parameters.
func FuzzSearchMatchesNaive(f *testing.F) {
	f.Add([]byte{0, 1, 9, 2, 18, 3, 27, 7, 36, 5, 45, 6}, uint16(0))
	f.Add([]byte{0, 7, 0, 7, 1, 7, 1, 7, 8, 7, 9, 7, 9, 3}, uint16(0x01f5))
	f.Fuzz(checkSearchMatchesNaive)
}

// checkSearchMatchesNaive is FuzzSearchMatchesNaive's body.
func checkSearchMatchesNaive(t *testing.T, data []byte, knobs uint16) {
	if len(data) < 4 {
		return
	}
	if len(data) > 2*200+2 {
		data = data[:2*200+2]
	}
	var objs []iurtree.Object
	for i := 0; i+3 < len(data); i += 2 {
		objs = append(objs, fuzzObject(int32(len(objs)), data[i], data[i+1]))
	}
	qo := fuzzObject(-1, data[len(data)-2], data[len(data)-1])
	q := core.Query{Loc: qo.Loc, Doc: qo.Doc}

	k := 1 + int(knobs&7)
	alpha := [4]float64{0, 0.25, 0.5, 1}[(knobs>>3)&3]
	sim := []vector.TextSim{vector.EJ{}, vector.Cosine{}}[(knobs>>5)&1]
	clustered := (knobs>>6)&1 == 1
	strategy := core.RefineStrategy((knobs >> 7) & 1)
	workers := 1 + int((knobs>>8)&3)%3

	cfg := iurtree.Config{Store: storage.NewStore()}
	if clustered {
		docs := make([]vector.Vector, len(objs))
		for i, o := range objs {
			docs[i] = o.Doc
		}
		cfg.Clustering = cluster.Run(docs, cluster.Config{K: 3, Seed: 7})
	}
	tree, err := iurtree.Build(objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := baseline.Naive(objs, q, k, alpha, tree.MaxD(), sim)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.RSTkNN(tree, q, core.Options{
		K: k, Alpha: alpha, Sim: sim, Strategy: strategy, Workers: workers,
	})
	if err != nil {
		t.Fatalf("%d objects, k=%d alpha=%g sim=%s clustered=%v strategy=%v workers=%d: %v",
			len(objs), k, alpha, sim.Name(), clustered, strategy, workers, err)
	}
	if !idsEqual(got.Results, want) {
		t.Fatalf("%d objects, k=%d alpha=%g sim=%s clustered=%v strategy=%v workers=%d: got %v, want %v",
			len(objs), k, alpha, sim.Name(), clustered, strategy, workers, got.Results, want)
	}
}
