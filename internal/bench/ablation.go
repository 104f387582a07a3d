package bench

import (
	"fmt"
	"time"

	"rstknn/internal/cluster"
	"rstknn/internal/core"
	"rstknn/internal/dataset"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
	"rstknn/internal/vector"
)

// Extension experiments beyond the paper's figures: dataset-profile
// sensitivity (F10), ablations of this implementation's design choices
// (F11), and warm-vs-cold buffer pool behaviour (F12). DESIGN.md calls
// these out as the "design choices to ablate".

func init() {
	Experiments = append(Experiments,
		Experiment{"F10", "Dataset profile sensitivity (where CIUR wins)", RunF10Profiles},
		Experiment{"F11", "Ablation: group refinement budget and refinement strategy", RunF11Ablation},
		Experiment{"F12", "Buffer pool: cold vs warm page accesses", RunF12BufferPool},
	)
}

// RunF10Profiles compares IUR and CIUR across the dataset profiles. The
// expectation from the CIUR design: little to no gain on unstructured
// text (gn, uniform), a clear win in decided-at-node-level fraction and
// page accesses on topical text.
func RunF10Profiles(cfg Config) error {
	cfg = cfg.withDefaults()
	t := newTable(fmt.Sprintf("F10: profile sensitivity (k=%d, alpha=%g)", defaultK, defaultAlpha),
		"profile", "method", "time (ms)", "pages", "group-decided", "candidates")
	for _, p := range []dataset.Profile{dataset.GN, dataset.Uniform, dataset.Topical} {
		col := dataset.Generate(p, dataset.Params{N: cfg.scaled(defaultN / 2), Seed: cfg.Seed})
		queries := col.Queries(cfg.Queries, cfg.Seed+1)
		methods, err := buildMethods(col.Objects, []method{treeMethods[0], treeMethods[1]}, cfg.Seed)
		if err != nil {
			return err
		}
		for i := range methods {
			m, err := methods[i].runQueries(queries, defaultK, defaultAlpha, nil)
			if err != nil {
				return err
			}
			t.add(p.String(), methods[i].name, ms(m.Time), f1(m.Pages), pct(m.GroupFrac), f1(m.Candidates))
		}
	}
	t.render(cfg.Out)
	return nil
}

// RunF11Ablation toggles the implementation's search knobs on the same
// workload: the group refinement budget and the refinement strategy. A
// small group budget trades extra node reads for group decisions.
func RunF11Ablation(cfg Config) error {
	cfg = cfg.withDefaults()
	col, queries := fixture(cfg, defaultN/2)
	docs := make([]vector.Vector, len(col.Objects))
	for i := range col.Objects {
		docs[i] = col.Objects[i].Doc
	}
	asg := cluster.Run(docs, cluster.Config{K: 16, Seed: cfg.Seed})
	tree, err := iurtree.Build(col.Objects, iurtree.Config{
		Store:      storage.NewStore(),
		Clustering: asg,
	})
	if err != nil {
		return err
	}

	variants := []struct {
		name string
		opt  core.Options
	}{
		{"default", core.Options{K: defaultK, Alpha: defaultAlpha}},
		{"group-refine 2", core.Options{K: defaultK, Alpha: defaultAlpha, GroupRefine: 2}},
		{"group-refine 8", core.Options{K: defaultK, Alpha: defaultAlpha, GroupRefine: 8}},
		{"entropy strategy", core.Options{K: defaultK, Alpha: defaultAlpha, Strategy: core.RefineByEntropy}},
	}
	t := newTable(fmt.Sprintf("F11: ablation on CIUR (|D|=%d, k=%d, alpha=%g)", len(col.Objects), defaultK, defaultAlpha),
		"variant", "time (ms)", "pages", "bound evals", "rebounds", "refines", "|result|")
	var reference float64 = -1
	for _, v := range variants {
		var agg measurement
		var total time.Duration
		for _, q := range queries {
			var tracker storage.Tracker
			opt := v.opt
			opt.Tracker = &tracker
			start := time.Now()
			out, err := core.RSTkNN(tree, core.Query{Loc: q.Loc, Doc: q.Doc}, opt)
			if err != nil {
				return err
			}
			total += time.Since(start)
			agg.Pages += float64(tracker.PagesRead())
			agg.Bounds += float64(out.Metrics.BoundEvals)
			agg.Refines += float64(out.Metrics.Refinements)
			agg.Results += float64(len(out.Results))
			agg.Nodes += float64(out.Metrics.Rebounds) // reuse field for rebounds
		}
		qn := float64(len(queries))
		if reference < 0 {
			reference = agg.Results
			//rstknn:allow floatcmp both sides are sums of integer result counts, exactly representable in float64
		} else if agg.Results != reference {
			return fmt.Errorf("F11: variant %q changed the result set", v.name)
		}
		t.add(v.name,
			ms(time.Duration(float64(total)/qn)),
			f1(agg.Pages/qn), f1(agg.Bounds/qn), f1(agg.Nodes/qn),
			f1(agg.Refines/qn), f1(agg.Results/qn))
	}
	t.render(cfg.Out)
	return nil
}

// RunF12BufferPool measures the same query workload against stores with
// increasing LRU buffer pools: the first pass is cold, the second warm.
func RunF12BufferPool(cfg Config) error {
	cfg = cfg.withDefaults()
	col, queries := fixture(cfg, defaultN/2)
	poolSizes := []int{0, 256, 1024, 8192}
	t := newTable(fmt.Sprintf("F12: buffer pool (|D|=%d, k=%d, alpha=%g; pages per query)", len(col.Objects), defaultK, defaultAlpha),
		"pool (pages)", "cold pages", "warm pages", "warm hit rate")
	for _, pool := range poolSizes {
		opts := []storage.Option{}
		if pool > 0 {
			opts = append(opts, storage.WithBufferPool(pool))
		}
		store := storage.NewStore(opts...)
		tree, err := iurtree.Build(col.Objects, iurtree.Config{Store: store})
		if err != nil {
			return err
		}
		store.DropCache()

		run := func() (pages, hits, reads float64, err error) {
			var pg, ht, rd int64
			for _, q := range queries {
				var tracker storage.Tracker
				if _, err := core.RSTkNN(tree, core.Query{Loc: q.Loc, Doc: q.Doc},
					core.Options{K: defaultK, Alpha: defaultAlpha, Tracker: &tracker}); err != nil {
					return 0, 0, 0, err
				}
				pg += tracker.PagesRead()
				ht += tracker.CacheHits()
				rd += tracker.Reads()
			}
			qn := float64(len(queries))
			return float64(pg) / qn, float64(ht) / qn, float64(rd) / qn, nil
		}
		cold, _, _, err := run()
		if err != nil {
			return err
		}
		warm, hits, reads, err := run()
		if err != nil {
			return err
		}
		rate := 0.0
		if hits+reads > 0 {
			rate = hits / (hits + reads)
		}
		t.add(fmt.Sprint(pool), f1(cold), f1(warm), pct(rate))
	}
	t.render(cfg.Out)
	return nil
}
