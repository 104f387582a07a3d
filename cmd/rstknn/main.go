// Command rstknn is the interactive front door of the library: it
// generates or loads a geo-textual collection, builds an IUR-/CIUR-tree,
// and answers reverse spatial-textual kNN, top-k, and influence queries
// from the command line.
//
// Usage:
//
//	rstknn -data objects.csv -query "x,y,text..." -k 10 [flags]
//	rstknn -gen gn -n 20000 -query "500,500,sushi bar" -k 5
//	rstknn -data objects.csv -stats
//
// The CSV format is id,x,y,"term:weight term:weight ..." (see
// internal/dataset). With -raw the fourth field is free text, tokenized
// and TF-IDF weighted on load.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"rstknn/internal/core"
	"rstknn/internal/dataset"
	"rstknn/internal/geom"
	"rstknn/internal/textual"
	"rstknn/internal/vector"

	"rstknn/internal/baseline"
	"rstknn/internal/cluster"
	"rstknn/internal/iurtree"
	"rstknn/internal/storage"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rstknn:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	// A bare first word dispatches to the persistent-index subcommands
	// (build/query/insert/delete/stats — see subcmd.go); plain
	// flags keep the original one-shot in-memory behavior.
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		return runSub(args[0], args[1:], out)
	}
	fs := flag.NewFlagSet("rstknn", flag.ContinueOnError)
	var (
		dataPath = fs.String("data", "", "CSV collection to load (id,x,y,terms)")
		raw      = fs.Bool("raw", false, "treat the CSV text field as free text (tokenize + TF-IDF)")
		gen      = fs.String("gen", "", "generate a synthetic collection instead: gn|sb|uniform")
		n        = fs.Int("n", 10000, "synthetic collection size")
		seed     = fs.Int64("seed", 1, "generation seed")
		index    = fs.String("index", "iur", "index kind: iur|ciur")
		clusters = fs.Int("clusters", 16, "CIUR cluster count")
		outlier  = fs.Float64("outlier", 0, "O-CIUR outlier threshold (0 disables)")
		entropy  = fs.Bool("entropy", false, "E-CIUR entropy refinement at query time")
		alpha    = fs.Float64("alpha", 0.5, "spatial/textual preference in [0,1]")
		k        = fs.Int("k", 10, "rank cutoff")
		measure  = fs.String("measure", "ej", "text similarity: ej|cosine")
		query    = fs.String("query", "", `reverse query: "x,y,term term ..."`)
		topk     = fs.String("topk", "", `top-k query: "x,y,term term ..."`)
		stats    = fs.Bool("stats", false, "print collection and index statistics")
		check    = fs.Bool("check", false, "verify the reverse query against the naive oracle")
		checkIdx = fs.Bool("checkindex", false, "verify the IUR-tree structural invariants after building")
		timeout  = fs.Duration("timeout", 0, "abort queries after this long (0 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// 1. Load or generate the collection.
	var objs []iurtree.Object
	vocab := textual.NewVocabulary()
	switch {
	case *gen != "":
		profile, err := dataset.ProfileByName(*gen)
		if err != nil {
			return err
		}
		col := dataset.Generate(profile, dataset.Params{N: *n, Seed: *seed})
		objs = col.Objects
		vocab = dataset.SyntheticVocabulary(col.Params.Vocab)
		fmt.Fprintf(out, "generated %d objects (profile %s, seed %d)\n", len(objs), profile, *seed)
	case *dataPath != "":
		f, err := os.Open(*dataPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if *raw {
			objs, vocab, err = dataset.ReadRawCSV(f, textual.TFIDF)
		} else {
			objs, err = dataset.ReadCSV(f, vocab)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "loaded %d objects from %s\n", len(objs), *dataPath)
	default:
		return fmt.Errorf("need -data or -gen (see -h)")
	}

	sim := vector.ByName(*measure)
	if sim == nil {
		return fmt.Errorf("unknown measure %q", *measure)
	}

	// 2. Build the index.
	store := storage.NewStore()
	cfg := iurtree.Config{Store: store}
	switch *index {
	case "iur":
	case "ciur":
		docs := make([]vector.Vector, len(objs))
		for i := range objs {
			docs[i] = objs[i].Doc
		}
		cfg.Clustering = cluster.Run(docs, cluster.Config{
			K: *clusters, Seed: *seed, OutlierThreshold: *outlier,
		})
	default:
		return fmt.Errorf("unknown index %q", *index)
	}
	tree, err := iurtree.Build(objs, cfg)
	if err != nil {
		return err
	}
	store.ResetStats()

	if *stats {
		printStats(out, objs, tree, vocab)
	}

	if *checkIdx {
		var tracker storage.Tracker
		if err := tree.CheckInvariants(&tracker); err != nil {
			return fmt.Errorf("checkindex FAILED: %w", err)
		}
		fmt.Fprintf(out, "checkindex: all structural invariants hold (%d node reads, %d cache hits)\n",
			tracker.Reads(), tracker.CacheHits())
	}

	strategy := core.RefineByMaxUpper
	if *entropy {
		strategy = core.RefineByEntropy
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// 3. Answer queries.
	if *query != "" {
		q, err := parseQuery(*query, vocab)
		if err != nil {
			return err
		}
		var tracker storage.Tracker
		res, err := core.RSTkNN(tree, q, core.Options{
			K: *k, Alpha: *alpha, Sim: sim, Strategy: strategy,
			Ctx: ctx, Tracker: &tracker,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "RSTkNN(k=%d, alpha=%g): %d objects would rank the query in their top-%d\n",
			*k, *alpha, len(res.Results), *k)
		for _, id := range res.Results {
			fmt.Fprintf(out, "  object %d\n", id)
		}
		fmt.Fprintf(out, "cost: %d node reads, %d page accesses, %d exact sims, %d bound evals\n",
			res.Metrics.NodesRead, tracker.PagesRead(), res.Metrics.ExactSims, res.Metrics.BoundEvals)
		if *check {
			want, err := baseline.Naive(objs, q, *k, *alpha, tree.MaxD(), sim)
			if err != nil {
				return err
			}
			if fmt.Sprint(want) == fmt.Sprint(res.Results) {
				fmt.Fprintln(out, "check: matches naive oracle ✓")
			} else {
				return fmt.Errorf("check FAILED: naive oracle returned %v", want)
			}
		}
	}

	if *topk != "" {
		q, err := parseQuery(*topk, vocab)
		if err != nil {
			return err
		}
		nbs, _, err := core.TopK(tree, q, core.TopKOptions{
			K: *k, Alpha: *alpha, Sim: sim, Exclude: -1, Ctx: ctx,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "top-%d most similar objects:\n", *k)
		for i, nb := range nbs {
			fmt.Fprintf(out, "  %2d. object %d (sim %.4f)\n", i+1, nb.ID, nb.Sim)
		}
	}
	return nil
}

// parseQuery parses "x,y,term term term" into a core.Query, weighting
// terms as binary presence against the vocabulary (unknown terms are
// interned so a query can mention new words; they simply match nothing).
func parseQuery(s string, vocab *textual.Vocabulary) (core.Query, error) {
	parts := strings.SplitN(s, ",", 3)
	if len(parts) < 2 {
		return core.Query{}, fmt.Errorf("query must be \"x,y,text\": %q", s)
	}
	x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return core.Query{}, fmt.Errorf("bad x in query %q: %w", s, err)
	}
	y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return core.Query{}, fmt.Errorf("bad y in query %q: %w", s, err)
	}
	if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
		return core.Query{}, fmt.Errorf("query location (%g, %g) must be finite", x, y)
	}
	w := make(map[vector.TermID]float64)
	if len(parts) == 3 {
		for _, tok := range textual.Tokenize(parts[2]) {
			w[vocab.ID(tok)] = 1
		}
	}
	return core.Query{Loc: geom.Point{X: x, Y: y}, Doc: vector.New(w)}, nil
}

func printStats(out io.Writer, objs []iurtree.Object, tree *iurtree.Snapshot, vocab *textual.Vocabulary) {
	var totalTerms int64
	seen := map[vector.TermID]bool{}
	for _, o := range objs {
		totalTerms += int64(o.Doc.Len())
		for i := 0; i < o.Doc.Len(); i++ {
			seen[o.Doc.Term(i)] = true
		}
	}
	fmt.Fprintf(out, "collection: %d objects, %d unique terms, %.2f terms/object\n",
		len(objs), len(seen), float64(totalTerms)/float64(max(1, len(objs))))
	fmt.Fprintf(out, "index: height %d, %d nodes, %d pages, %.2f MiB (%.2f MiB live)",
		tree.Height(), tree.Store().Len(), tree.Store().TotalPages(),
		float64(tree.Store().TotalBytes())/(1<<20),
		float64(tree.Store().LiveBytes())/(1<<20))
	if tree.Clustered() {
		fmt.Fprintf(out, ", %d clusters", tree.NumClusters())
	}
	fmt.Fprintf(out, "\nspace: %v (maxD %.2f)\n", tree.Space(), tree.MaxD())
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
