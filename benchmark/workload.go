package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"rstknn"
	"rstknn/internal/dataset"
	"rstknn/internal/vector"
)

// Query parameters shared by every workload (the paper's defaults).
const (
	k     = 10
	alpha = 0.5

	// collectionSeed fixes the indexed collection of each workload, the
	// way the paper evaluates on fixed real collections: --seed draws
	// the query and update streams. A seeded collection moves the mean
	// query cost by ~12% between seeds (GN's 24 spatial clusters land
	// differently), which would drown any bound a regression gate could
	// use.
	collectionSeed = 2011

	// warmupQueries run untimed before the measured phase; checkQueries
	// (a prefix of the request list) have reference answers every later
	// answer to them is compared with.
	warmupQueries = 64
	warmupShare   = 0.25
	checkQueries  = 32
	// setupRepeats engine constructions are timed; setup_s is their
	// median.
	setupRepeats = 15
	// queryListLen requests are generated per run; clients wrap around
	// when a fast build exhausts them.
	queryListLen = 1 << 14
	// freshObjects distinct documents feed the churn writer's inserts.
	freshObjects = 4096
	// freshIDBase keeps inserted IDs clear of the collection's 0..n-1.
	freshIDBase = 1 << 24
)

// workload is one traffic mix. Every field is fixed per workload; only
// --seed and --seconds vary between runs.
type workload struct {
	name    string
	profile dataset.Profile
	objects int
	// clients closed-loop query clients run concurrently.
	clients int
	// batch > 0 sends BatchQueryStatsCtx calls of that many requests;
	// 0 sends single QueryCtx calls.
	batch int
	// disk builds, Saves and reOpens the index into a FileStore with a
	// buffer pool of pool pages.
	disk bool
	pool int
	// writeHz > 0 adds one open-loop writer calling Apply (delete one
	// object, insert one) at that rate.
	writeHz float64
	// naiveChecks queries are compared with Engine.NaiveQuery. The
	// oracle is O(n^2) (~1.6 s per query on GN 2,500), so read-only
	// workloads check a few before the measured phase and churn-sb
	// checks more after its writer stops, on the smaller SB index.
	naiveChecks int
}

// The reasons for each workload are in README.md and BENCHMARK.json.
// Each workload has one query client: on the 2-vCPU VM the benchmark was
// sized on, two clients left the runtime and the host no CPU of their
// own, and the middle half of ten mem-single runs spread 14% in
// throughput, against 4.5% with one client.
var workloads = []workload{
	{name: "mem-single", profile: dataset.GN, objects: 2500, clients: 1, naiveChecks: 2},
	{name: "mem-batch16", profile: dataset.GN, objects: 2500, clients: 1, batch: 16, naiveChecks: 2},
	{name: "disk-pool32", profile: dataset.GN, objects: 2500, clients: 1, disk: true, pool: 32, naiveChecks: 2},
	{name: "churn-sb", profile: dataset.SB, objects: 1000, clients: 1, writeHz: 40, naiveChecks: 12},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs are everything a run sends to the engine, generated in-process.
type inputs struct {
	objects []rstknn.Object
	queries []rstknn.QueryRequest
	// fresh documents for the writer's inserts.
	fresh []rstknn.Object
}

func makeInputs(w workload, seed int64, scale float64) inputs {
	n := max(16, int(float64(w.objects)*scale))
	col := dataset.Generate(w.profile, dataset.Params{N: n, Seed: collectionSeed})
	in := inputs{objects: make([]rstknn.Object, n)}
	for i, o := range col.Objects {
		in.objects[i] = rstknn.Object{ID: o.ID, X: o.Loc.X, Y: o.Loc.Y, Text: render(o.Doc)}
	}
	for _, q := range col.Queries(queryListLen, seed) {
		in.queries = append(in.queries, rstknn.QueryRequest{X: q.Loc.X, Y: q.Loc.Y, Text: render(q.Doc), K: k})
	}
	// Queries follow the data distribution, so they double as realistic
	// new objects for the writer.
	for _, q := range col.Queries(freshObjects, seed+1) {
		in.fresh = append(in.fresh, rstknn.Object{X: q.Loc.X, Y: q.Loc.Y, Text: render(q.Doc)})
	}
	return in
}

// render writes a term vector as text the engine tokenizes and weighs
// itself: term id as "t<id>", repeated max(1, floor(weight)) times.
func render(v vector.Vector) string {
	var b strings.Builder
	for i := 0; i < v.Len(); i++ {
		term := "t" + strconv.Itoa(int(v.Term(i)))
		for j := max(1, int(math.Floor(v.Weight(i)))); j > 0; j-- {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(term)
		}
	}
	return b.String()
}

// updateStream is the churn writer's deterministic sequence of
// delete-one-insert-one batches. Two streams made from the same inputs
// and seed produce the same batches against the same starting index.
type updateStream struct {
	rng   *rand.Rand
	live  []int32
	fresh []rstknn.Object
	n     int
}

func newUpdateStream(in inputs, seed int64) *updateStream {
	u := &updateStream{rng: rand.New(rand.NewSource(seed)), fresh: in.fresh}
	for _, o := range in.objects {
		u.live = append(u.live, o.ID)
	}
	return u
}

// next deletes a random live object and inserts a fresh one. Fresh IDs
// never repeat; their documents cycle through the fresh pool.
func (u *updateStream) next() rstknn.Batch {
	i := u.rng.Intn(len(u.live))
	del := u.live[i]
	ins := u.fresh[u.n%len(u.fresh)]
	ins.ID = int32(freshIDBase + u.n)
	u.live[i] = ins.ID
	u.n++
	return rstknn.Batch{Delete: []int32{del}, Insert: []rstknn.Object{ins}}
}
