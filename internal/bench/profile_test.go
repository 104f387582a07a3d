package bench

import (
	"testing"

	"rstknn/internal/core"
	"rstknn/internal/storage"
)

// BenchmarkPinnedWorkload runs the pinned workload (the one
// TestGoldenCountersPinnedWorkload pins) as a Go benchmark, so the standard
// -benchmem/-cpuprofile/-memprofile tooling can attribute the query
// path's time and allocations. It has one sub-benchmark per tree
// method the golden counters cover plus plain CIUR (IUR, CIUR, E-CIUR):
// the benchmark module runs IUR only, so this is where a change's effect
// on the clustered trees shows.
func BenchmarkPinnedWorkload(b *testing.B) {
	cfg := Config{Scale: 0.25, Queries: 16, Seed: 7}.withDefaults()
	col, queries := fixture(cfg, defaultN/2)
	methods, err := buildMethods(col.Objects, []method{treeMethods[0], treeMethods[1], treeMethods[3]}, cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	for i := range methods {
		bm := &methods[i]
		b.Run(bm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					var tracker storage.Tracker
					_, err := core.RSTkNN(bm.tree, core.Query{Loc: q.Loc, Doc: q.Doc}, core.Options{
						K: defaultK, Alpha: defaultAlpha, Strategy: bm.strategy,
						Workers: 1, Tracker: &tracker,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
