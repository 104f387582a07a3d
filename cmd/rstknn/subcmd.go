// Subcommands operating on saved index directories (rstknn.Save/Open):
//
//	rstknn build   -dir IDX -data raw.csv [-index ciur] [-alpha A] ...
//	rstknn query   -dir IDX -query "x,y,text" -k 10
//	rstknn insert  -dir IDX -id 42 -x 3 -y 4 -text "sushi bar"
//	rstknn delete  -dir IDX -id 42
//	rstknn stats   -dir IDX
//
// build creates the directory from a raw-text CSV (id,x,y,free text);
// insert/delete run one live update through the copy-on-write engine and
// Save the successor snapshot over the directory. A CLI process has no
// concurrent reader, so the update's superseded nodes are reclaimed at
// once and Save writes their slots as empty log records, which the next
// Open puts back on the free list.
// Flag-only invocations keep the original in-memory behavior (see
// main.go).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"rstknn"
)

func runSub(cmd string, args []string, out io.Writer) error {
	switch cmd {
	case "build":
		return runBuild(args, out)
	case "query":
		return runQuerySub(args, out)
	case "insert":
		return runInsert(args, out)
	case "delete":
		return runDelete(args, out)
	case "stats":
		return runStatsSub(args, out)
	default:
		return fmt.Errorf("unknown subcommand %q (want build|query|insert|delete|stats)", cmd)
	}
}

// loadRawObjects reads "id,x,y,free text" lines (the -raw CSV layout)
// into API objects, keeping the text raw so Build can weigh it.
func loadRawObjects(path string) ([]rstknn.Object, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var objs []rstknn.Object
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.SplitN(text, ",", 4)
		if len(parts) < 3 {
			return nil, fmt.Errorf("%s:%d: want id,x,y,text", path, line)
		}
		id, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad id: %w", path, line, err)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad x: %w", path, line, err)
		}
		y, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad y: %w", path, line, err)
		}
		o := rstknn.Object{ID: int32(id), X: x, Y: y}
		if len(parts) == 4 {
			o.Text = parts[3]
		}
		objs = append(objs, o)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return objs, nil
}

func runBuild(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rstknn build", flag.ContinueOnError)
	var (
		dir      = fs.String("dir", "", "index directory to create (required)")
		data     = fs.String("data", "", "raw CSV collection: id,x,y,free text (required)")
		index    = fs.String("index", "iur", "index kind: iur|ciur")
		clusters = fs.Int("clusters", 16, "CIUR cluster count")
		alpha    = fs.Float64("alpha", 0.5, "spatial/textual preference in [0,1]")
		measure  = fs.String("measure", "ej", "text similarity: ej|cosine")
		seed     = fs.Int64("seed", 1, "clustering seed")
		stats    = fs.Bool("stats", false, "print index statistics after building")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *data == "" {
		return fmt.Errorf("build: -dir and -data are required")
	}
	objs, err := loadRawObjects(*data)
	if err != nil {
		return err
	}
	opt := rstknn.Options{Alpha: *alpha, AlphaSet: true, Measure: *measure,
		Clusters: *clusters, Seed: *seed}
	switch *index {
	case "iur":
		opt.Index = rstknn.IUR
	case "ciur":
		opt.Index = rstknn.CIUR
	default:
		return fmt.Errorf("unknown index %q", *index)
	}
	e, err := rstknn.Build(objs, opt)
	if err != nil {
		return err
	}
	if err := e.Save(*dir); err != nil {
		return err
	}
	fmt.Fprintf(out, "built %s index over %d objects in %s\n", *index, e.Len(), *dir)
	if *stats {
		printEngineStats(out, e.Stats())
	}
	return nil
}

// parseXYText splits "x,y,free text" for engine-level queries.
func parseXYText(s string) (x, y float64, text string, err error) {
	parts := strings.SplitN(s, ",", 3)
	if len(parts) < 2 {
		return 0, 0, "", fmt.Errorf("query must be \"x,y,text\": %q", s)
	}
	x, err = strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return 0, 0, "", fmt.Errorf("bad x in query %q: %w", s, err)
	}
	y, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return 0, 0, "", fmt.Errorf("bad y in query %q: %w", s, err)
	}
	if len(parts) == 3 {
		text = parts[2]
	}
	return x, y, text, nil
}

func runQuerySub(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rstknn query", flag.ContinueOnError)
	var (
		dir   = fs.String("dir", "", "index directory (required)")
		query = fs.String("query", "", `reverse query: "x,y,term term ..." (required)`)
		k     = fs.Int("k", 10, "rank cutoff")
		check = fs.Bool("check", false, "verify against the naive oracle")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *query == "" {
		return fmt.Errorf("query: -dir and -query are required")
	}
	x, y, text, err := parseXYText(*query)
	if err != nil {
		return err
	}
	e, err := rstknn.Open(*dir)
	if err != nil {
		return err
	}
	defer e.Close()
	res, err := e.Query(x, y, text, *k)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "RSTkNN(k=%d, alpha=%g): %d objects would rank the query in their top-%d\n",
		*k, e.Alpha(), len(res.IDs), *k)
	for _, id := range res.IDs {
		fmt.Fprintf(out, "  object %d\n", id)
	}
	fmt.Fprintf(out, "cost: %d node reads, %d page accesses, %d exact sims\n",
		res.Stats.NodesRead, res.Stats.PageAccesses, res.Stats.ExactSims)
	if *check {
		want, err := e.NaiveQuery(x, y, text, *k)
		if err != nil {
			return err
		}
		if fmt.Sprint(want) != fmt.Sprint(res.IDs) {
			return fmt.Errorf("check FAILED: naive oracle returned %v", want)
		}
		fmt.Fprintln(out, "check: matches naive oracle ✓")
	}
	return nil
}

func printUpdateStats(out io.Writer, st *rstknn.UpdateStats) {
	fmt.Fprintf(out, "update: %d blob writes (%d pages), %d node reads (%d pages), %d retired, %v\n",
		st.Writes, st.PagesWritten, st.Reads, st.PagesRead, st.Retired, st.Duration)
}

func runInsert(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rstknn insert", flag.ContinueOnError)
	var (
		dir   = fs.String("dir", "", "index directory (required)")
		id    = fs.Int("id", -1, "object ID (required)")
		x     = fs.Float64("x", 0, "object x coordinate")
		y     = fs.Float64("y", 0, "object y coordinate")
		text  = fs.String("text", "", "object description")
		stats = fs.Bool("stats", false, "print index statistics after the update")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *id < 0 {
		return fmt.Errorf("insert: -dir and -id are required")
	}
	e, err := rstknn.Open(*dir)
	if err != nil {
		return err
	}
	defer e.Close()
	st, err := e.Insert(rstknn.Object{ID: int32(*id), X: *x, Y: *y, Text: *text})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "inserted object %d (%d objects total)\n", *id, e.Len())
	printUpdateStats(out, st)
	if *stats {
		printEngineStats(out, e.Stats())
	}
	return e.Save(*dir)
}

func runDelete(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rstknn delete", flag.ContinueOnError)
	var (
		dir   = fs.String("dir", "", "index directory (required)")
		id    = fs.Int("id", -1, "object ID (required)")
		stats = fs.Bool("stats", false, "print index statistics after the update")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *id < 0 {
		return fmt.Errorf("delete: -dir and -id are required")
	}
	e, err := rstknn.Open(*dir)
	if err != nil {
		return err
	}
	defer e.Close()
	found, st, err := e.Delete(int32(*id))
	if err != nil {
		return err
	}
	if !found {
		fmt.Fprintf(out, "object %d not in the index; nothing to do\n", *id)
		return nil
	}
	fmt.Fprintf(out, "deleted object %d (%d objects remain)\n", *id, e.Len())
	printUpdateStats(out, st)
	if *stats {
		printEngineStats(out, e.Stats())
	}
	return e.Save(*dir)
}

func runStatsSub(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rstknn stats", flag.ContinueOnError)
	dir := fs.String("dir", "", "index directory (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("stats: -dir is required")
	}
	e, err := rstknn.Open(*dir)
	if err != nil {
		return err
	}
	defer e.Close()
	printEngineStats(out, e.Stats())
	return nil
}

func printEngineStats(out io.Writer, s rstknn.IndexStats) {
	fmt.Fprintf(out, "index: %s, %d objects, height %d, %d node slots, %d vocabulary terms\n",
		s.Kind, s.Objects, s.Height, s.Nodes, s.VocabSize)
	fmt.Fprintf(out, "storage: %d pages / %.2f MiB total, %d pages / %.2f MiB live, %d retired pending reclaim\n",
		s.Pages, float64(s.Bytes)/(1<<20), s.LivePages, float64(s.LiveBytes)/(1<<20), s.PendingReclaim)
	fmt.Fprintf(out, "write i/o: %d blob writes, %d pages written\n", s.Writes, s.PagesWritten)
	fmt.Fprintf(out, "caches: buffer pool %.1f%% hit (%d/%d), bound cache %.1f%% hit (%d/%d)\n",
		100*s.BufferPoolHitRatio(), s.BufferPoolHits, s.BufferPoolHits+s.BufferPoolMisses,
		100*s.BoundCacheHitRatio(), s.BoundCacheHits, s.BoundCacheHits+s.BoundCacheMisses)
	if s.Clusters > 0 {
		fmt.Fprintf(out, "clusters: %d\n", s.Clusters)
	}
	fmt.Fprintf(out, "maxD: %.2f\n", s.MaxDistance)
}
