package analysis

// A stdlib-only implementation of the `go vet -vettool` driver protocol
// (the "unitchecker" protocol of golang.org/x/tools, which this module
// cannot depend on). The go command invokes the tool three ways:
//
//	tool -V=full       print a version fingerprint (for build caching)
//	tool -flags        describe analyzer flags as JSON
//	tool <unit>.cfg    analyze one compilation unit described by the
//	                   JSON config file, writing facts to cfg.VetxOutput
//	                   and diagnostics to stderr (exit 1 when any)
//
// Type information for imports comes from the export-data files the go
// command already produced for the build, via go/importer.ForCompiler
// with a lookup into cfg.PackageFile.
//
// Facts ride the protocol's .vetx files: for every unit the driver reads
// the facts of its imports from cfg.PackageVetx, hands them to the
// dataflow engine (Summarize), and writes the merged result — imported
// facts plus the unit's own interesting summaries — to cfg.VetxOutput,
// so facts reach indirect importers transitively. Fact-only (VetxOnly)
// invocations run exactly that pipeline and skip the analyzers;
// standard-library units short-circuit to an empty facts file (their
// allocation behavior is covered by a fixed assumption table instead —
// see summary.go).

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// lintSchemaVersion is the version stamp of the JSON report shape
// emitted by -json. Bump it whenever a field is added, removed, or
// changes meaning, so report consumers can reject shapes they do not
// understand. v2 added schema_version itself and per-analyzer
// elapsed_us.
const lintSchemaVersion = 2

// vetNow is the clock behind the per-analyzer timings; a variable so
// the determinism test can pin it.
var vetNow = time.Now

// vetConfig mirrors the JSON compilation-unit description the go command
// hands to a vettool. Field names are fixed by the protocol.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// VetMain is the entry point of cmd/rstknn-lint: a vet-compatible driver
// running the given analyzers on one compilation unit per invocation.
func VetMain(analyzers ...*Analyzer) {
	progname := filepath.Base(os.Args[0])
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")

	printVersion := flag.String("V", "", "print version and exit (-V=full)")
	printFlags := flag.Bool("flags", false, "print analyzer flags in JSON")
	jsonOut := flag.Bool("json", false, "emit JSON output")
	flag.Parse()

	switch {
	case *printVersion != "":
		versionFingerprint(*printVersion)
		return
	case *printFlags:
		// Declare the tool's flags so the go command forwards matching
		// command-line flags (go vet -vettool=… -json) to every unit
		// invocation.
		fmt.Print(`[{"Name":"json","Bool":true,"Usage":"emit JSON output"}]`)
		return
	}

	args := flag.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		log.Fatalf("usage: run via go vet -vettool=%s ./... (direct invocation takes a single unit.cfg)", progname)
	}
	os.Exit(runUnit(args[0], analyzers, *jsonOut, os.Stdout, os.Stderr))
}

// versionFingerprint implements the -V=full handshake: the go command
// caches vet results keyed on this line, so it must change whenever the
// tool binary changes. Hashing the executable achieves that.
func versionFingerprint(mode string) {
	if mode != "full" {
		log.Fatalf("unsupported flag value: -V=%s (use -V=full)", mode)
	}
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel buildID=%02x\n", exe, h.Sum(nil))
}

// runUnit analyzes the compilation unit described by cfgPath and returns
// the process exit code.
func runUnit(cfgPath string, analyzers []*Analyzer, jsonOut bool, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		log.Fatal(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		log.Fatalf("cannot decode JSON config file %s: %v", cfgPath, err)
	}

	// The go command expects a facts file from every invocation.
	writeFacts := func(store *FactStore) {
		if cfg.VetxOutput == "" {
			return
		}
		if store == nil {
			store = NewFactStore()
		}
		if err := store.WriteFile(cfg.VetxOutput); err != nil {
			log.Fatalf("writing facts output: %v", err)
		}
	}

	// Standard-library units contribute no facts — hot-path calls into
	// them are judged by the assumption table in summary.go — so the
	// parse is skipped entirely. The go command's Standard map lists a
	// unit's standard *dependencies*, not the unit itself, so the unit's
	// own provenance is detected by its files living under GOROOT.
	if cfg.Standard[cfg.ImportPath] || standardUnit(&cfg) {
		writeFacts(nil)
		return 0
	}

	// Facts of the import closure. Each dependency's facts file already
	// contains its own transitive closure, so overlapping entries are
	// identical and merge order does not matter.
	imported := NewFactStore()
	for path, vetx := range cfg.PackageVetx {
		st, err := ReadFactsFile(vetx)
		if err != nil {
			log.Fatalf("reading facts of %s: %v", path, err)
		}
		imported.Merge(st)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeFacts(nil)
				return 0
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}

	tc := &types.Config{
		Importer:  cfgImporter(&cfg, fset),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := newTypesInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeFacts(nil)
			return 0
		}
		log.Fatal(err)
	}

	pf := Summarize(fset, files, pkg, info, imported)
	writeFacts(pf.ExportStore())
	if cfg.VetxOnly {
		// Dependencies are analyzed for facts only.
		return 0
	}

	diags := make(map[string][]Diagnostic)
	suppressed := make(map[string]int)
	elapsed := make(map[string]time.Duration, len(analyzers))
	for _, a := range analyzers {
		pass := NewPass(a, fset, files, pkg, info, pf, func(d Diagnostic) {
			diags[a.Name] = append(diags[a.Name], d)
		})
		start := vetNow()
		if err := a.Run(pass); err != nil {
			log.Fatalf("analyzer %s: %v", a.Name, err)
		}
		elapsed[a.Name] = vetNow().Sub(start)
		if n := pass.Suppressed(); n > 0 {
			suppressed[a.Name] += n
		}
	}

	if jsonOut {
		printJSONDiagnostics(stdout, fset, cfg.ID, analyzers, diags, suppressed, elapsed)
		return 0
	}
	exit := 0
	for _, a := range analyzers {
		for _, d := range diags[a.Name] {
			fmt.Fprintf(stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
			exit = 1
		}
	}
	return exit
}

// standardUnit reports whether the unit's sources live in GOROOT.
func standardUnit(cfg *vetConfig) bool {
	goroot := build.Default.GOROOT
	if goroot == "" || len(cfg.GoFiles) == 0 {
		return false
	}
	prefix := goroot + string(filepath.Separator)
	for _, f := range cfg.GoFiles {
		if !strings.HasPrefix(f, prefix) {
			return false
		}
	}
	return true
}

// newTypesInfo allocates every map go/types can fill; the analyzers need
// Selections, Types, and Uses, and the rest is cheap.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// cfgImporter resolves imports through the export-data files listed in
// the unit config, exactly as the go command prepared them.
func cfgImporter(cfg *vetConfig, fset *token.FileSet) types.Importer {
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		return compilerImporter.Import(path)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// printJSONDiagnostics emits one unit's report keyed by package ID, the
// shape per-unit outputs are merged under:
//
//	{"<id>": {"schema_version": 2,
//	          "diagnostics": {"<analyzer>": [{posn, message, analyzer}]},
//	          "counts":      {"<analyzer>": n},
//	          "elapsed_us":  {"<analyzer>": µs},
//	          "suppressed":  {"<analyzer>": count}}}
//
// counts and elapsed_us carry one entry per registered analyzer, zeroes
// included, so the report proves which analyzers ran (a missing pinsafe
// key reads as "not wired in"; an explicit 0 reads as "ran clean") and
// where the lint budget goes. suppressed counts the findings
// //rstknn:allow directives silenced, per analyzer — the audit surface
// for exceptions.
func printJSONDiagnostics(w io.Writer, fset *token.FileSet, id string, analyzers []*Analyzer, diags map[string][]Diagnostic, suppressed map[string]int, elapsed map[string]time.Duration) {
	type jsonDiag struct {
		Posn     string `json:"posn"`
		Message  string `json:"message"`
		Analyzer string `json:"analyzer"`
	}
	type jsonUnit struct {
		SchemaVersion int                   `json:"schema_version"`
		Diagnostics   map[string][]jsonDiag `json:"diagnostics"`
		Counts        map[string]int        `json:"counts"`
		ElapsedUs     map[string]int64      `json:"elapsed_us"`
		Suppressed    map[string]int        `json:"suppressed"`
	}
	unit := jsonUnit{
		SchemaVersion: lintSchemaVersion,
		Diagnostics:   make(map[string][]jsonDiag),
		Counts:        make(map[string]int, len(analyzers)),
		ElapsedUs:     make(map[string]int64, len(analyzers)),
		Suppressed:    suppressed,
	}
	for _, a := range analyzers {
		ds := diags[a.Name]
		unit.Counts[a.Name] = len(ds)
		unit.ElapsedUs[a.Name] = elapsed[a.Name].Microseconds()
		if len(ds) == 0 {
			continue
		}
		out := make([]jsonDiag, len(ds))
		for i, d := range ds {
			out[i] = jsonDiag{
				Posn:     fset.Position(d.Pos).String(),
				Message:  d.Message,
				Analyzer: d.Analyzer,
			}
		}
		unit.Diagnostics[a.Name] = out
	}
	enc, err := json.MarshalIndent(map[string]jsonUnit{id: unit}, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := w.Write(append(enc, '\n')); err != nil {
		log.Fatal(err)
	}
}
