package rstknn

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// menu vocabulary for readable test datasets.
var menuTerms = []string{
	"sushi", "seafood", "noodles", "ramen", "pizza", "pasta", "burger",
	"tacos", "curry", "kebab", "salad", "vegan", "bbq", "steak", "dessert",
}

func genRestaurants(rng *rand.Rand, n int) []Object {
	objs := make([]Object, n)
	for i := range objs {
		var sb strings.Builder
		for j := 0; j < 1+rng.Intn(4); j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(menuTerms[rng.Intn(len(menuTerms))])
		}
		objs[i] = Object{
			ID:   int32(i),
			X:    rng.Float64() * 100,
			Y:    rng.Float64() * 100,
			Text: sb.String(),
		}
	}
	return objs
}

func TestBuildAndQuerySmoke(t *testing.T) {
	objects := []Object{
		{ID: 1, X: 3, Y: 4, Text: "sushi seafood"},
		{ID: 2, X: 8, Y: 1, Text: "noodles ramen"},
		{ID: 3, X: 2, Y: 2, Text: "sushi bar"},
		{ID: 4, X: 9, Y: 9, Text: "pizza pasta"},
	}
	eng, err := Build(objects, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Len() != 4 {
		t.Fatalf("Len = %d", eng.Len())
	}
	res, err := eng.Query(3, 3, "sushi", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) == 0 {
		t.Fatal("expected at least one result")
	}
	if res.Stats.NodesRead == 0 || res.Stats.ExactSims == 0 {
		t.Errorf("stats should record work: %+v", res.Stats)
	}
}

func TestEngineMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	objects := genRestaurants(rng, 300)
	configs := []Options{
		{},
		{Index: CIUR, Clusters: 5},
		{Index: CIUR, Clusters: 5, EntropyRefinement: true, OutlierThreshold: 0.15},
		{Weighting: "binary"},
		{Measure: "cosine"},
		{Alpha: 0.9},
		{AlphaSet: true}, // pure text
		{Alpha: 1},       // pure spatial
		{GroupRefine: 2},
	}
	for ci, opt := range configs {
		eng, err := Build(objects, opt)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		for trial := 0; trial < 4; trial++ {
			x, y := rng.Float64()*100, rng.Float64()*100
			text := menuTerms[rng.Intn(len(menuTerms))] + " " + menuTerms[rng.Intn(len(menuTerms))]
			k := 1 + rng.Intn(8)
			res, err := eng.Query(x, y, text, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eng.NaiveQuery(x, y, text, k)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(res.IDs) != fmt.Sprint(want) {
				t.Fatalf("config %d trial %d: engine %v != naive %v", ci, trial, res.IDs, want)
			}
		}
	}
}

// TestExtremeCoordinatesMatchNaive indexes objects at ±1e200, whose
// squared distances overflow float64, and at subnormal offsets from the
// origin, whose squared distances underflow. Distances there must keep
// math.Hypot's answer: a +Inf distance would make the spatial
// similarity -Inf, and with alpha 0 its zero weight would turn that
// into NaN. Build must accept the collection and every query must
// match the exhaustive scan, at alpha 0 and at alpha 1.
func TestExtremeCoordinatesMatchNaive(t *testing.T) {
	const big, tiny = 1e200, 5e-324 // tiny is the smallest subnormal
	var objects []Object
	for i, sx := range []float64{-1, 1} {
		for j, sy := range []float64{-1, 1} {
			for m := 0; m < 3; m++ {
				objects = append(objects, Object{
					ID: int32(len(objects)), X: sx * big * float64(1+m), Y: sy * big,
					Text: menuTerms[(i+2*j+m)%len(menuTerms)],
				})
			}
		}
	}
	for m := 0; m < 12; m++ {
		objects = append(objects, Object{
			ID: int32(len(objects)), X: float64(m%4-1) * tiny, Y: float64(m/4) * 3 * tiny,
			Text: menuTerms[m%5] + " " + menuTerms[(m+3)%7],
		})
	}
	queries := []struct{ x, y float64 }{
		{0, 0}, {tiny, -tiny}, {big, big}, {-2 * big, big}, {1e100, -1e100},
	}
	for _, opt := range []Options{{AlphaSet: true}, {Alpha: 1}, {Index: CIUR, Clusters: 3, AlphaSet: true}} {
		eng, err := Build(objects, opt)
		if err != nil {
			t.Fatalf("alpha %g: Build: %v", opt.Alpha, err)
		}
		for _, q := range queries {
			for _, k := range []int{1, 3, 7} {
				text := menuTerms[k%5]
				res, err := eng.QueryCtx(context.Background(), q.x, q.y, text, k)
				if err != nil {
					t.Fatalf("alpha %g query (%g, %g) k=%d: %v", opt.Alpha, q.x, q.y, k, err)
				}
				want, err := eng.NaiveQuery(q.x, q.y, text, k)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(res.IDs, want) {
					t.Errorf("alpha %g query (%g, %g) k=%d: engine %v, naive %v", opt.Alpha, q.x, q.y, k, res.IDs, want)
				}
			}
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	objs := genRestaurants(rand.New(rand.NewSource(2)), 10)
	cases := []Options{
		{Alpha: 1.2},
		{Weighting: "bm25"},
		{Measure: "levenshtein"},
	}
	for i, opt := range cases {
		if _, err := Build(objs, opt); err == nil {
			t.Errorf("config %d should fail: %+v", i, opt)
		}
	}
	if _, err := Build([]Object{{ID: 1}, {ID: 1}}, Options{}); err == nil {
		t.Error("duplicate IDs should fail")
	}
}

func TestTopKEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	eng, err := Build(genRestaurants(rng, 200), Options{})
	if err != nil {
		t.Fatal(err)
	}
	nbs, err := eng.TopK(50, 50, "sushi seafood", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != 10 {
		t.Fatalf("TopK returned %d", len(nbs))
	}
	for i := 1; i < len(nbs); i++ {
		if nbs[i].Similarity > nbs[i-1].Similarity {
			t.Fatal("TopK not sorted by similarity")
		}
	}
}

func TestInfluenceEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	facilities := genRestaurants(rng, 150)
	users := genRestaurants(rng, 40)
	eng, err := Build(facilities, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Influence(users, 50, 50, "sushi seafood ramen", 5)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: influencing with k = |facilities|+1 influences everyone.
	all, err := eng.Influence(users, 50, 50, "sushi", len(facilities)+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(users) {
		t.Errorf("k > |facilities| should influence all users; got %d", len(all))
	}
	if len(got) > len(all) {
		t.Error("smaller k cannot influence more users")
	}
}

func TestIndexStats(t *testing.T) {
	eng, err := Build(genRestaurants(rand.New(rand.NewSource(6)), 500), Options{Index: CIUR, Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Objects != 500 || st.Nodes == 0 || st.Pages == 0 || st.Bytes == 0 {
		t.Errorf("stats look wrong: %+v", st)
	}
	if st.Clusters < 4 || st.Kind != CIUR {
		t.Errorf("cluster info wrong: %+v", st)
	}
	if st.VocabSize == 0 || st.MaxDistance <= 0 {
		t.Errorf("vocab/maxD wrong: %+v", st)
	}
	if st.Height < 1 {
		t.Errorf("height = %d", st.Height)
	}
}

func TestObjectByID(t *testing.T) {
	eng, err := Build([]Object{{ID: 7, X: 1, Y: 2, Text: "sushi"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x, y, doc, err := eng.ObjectByID(7)
	if err != nil || x != 1 || y != 2 || doc.IsEmpty() {
		t.Errorf("ObjectByID: %g %g %v %v", x, y, doc, err)
	}
	if _, _, _, err := eng.ObjectByID(99); err == nil {
		t.Error("unknown ID should fail")
	}
}

func TestUnknownQueryTermsAreIgnored(t *testing.T) {
	eng, err := Build(genRestaurants(rand.New(rand.NewSource(7)), 50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A query made of terms absent from the corpus behaves like an empty
	// text query (and must not panic).
	a, err := eng.Query(10, 10, "zzzz qqqq", 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Query(10, 10, "", 3)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.IDs) != fmt.Sprint(b.IDs) {
		t.Errorf("unknown-term query %v != empty query %v", a.IDs, b.IDs)
	}
}

func TestBufferPoolReducesIO(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	objects := genRestaurants(rng, 400)
	cold, err := Build(objects, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Build(objects, Options{BufferPoolPages: 100000})
	if err != nil {
		t.Fatal(err)
	}
	warm.ResetIOStats()
	cold.ResetIOStats()
	// Prime the pool, then measure a repeat query.
	if _, err := warm.Query(50, 50, "sushi", 5); err != nil {
		t.Fatal(err)
	}
	r1, err := warm.Query(50, 50, "sushi", 5)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cold.Query(50, 50, "sushi", 5)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.PageAccesses != 0 {
		t.Errorf("warm repeat query should be free: %d pages", r1.Stats.PageAccesses)
	}
	if r2.Stats.PageAccesses == 0 {
		t.Error("cold query should cost pages")
	}
	if fmt.Sprint(r1.IDs) != fmt.Sprint(r2.IDs) {
		t.Error("cache must not change results")
	}
}

func TestEmptyEngine(t *testing.T) {
	eng, err := Build(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(0, 0, "anything", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 0 {
		t.Errorf("empty engine returned %v", res.IDs)
	}
}

func TestQueryByID(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	objects := genRestaurants(rng, 150)
	eng, err := Build(objects, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.QueryByID(42, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range res.IDs {
		if id == 42 {
			t.Fatal("query object must not appear in its own result")
		}
	}
	// Equivalent to querying with the object's own location and text,
	// minus the object itself.
	x, y, doc, err := eng.ObjectByID(42)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := eng.QueryVector(x, y, doc, 5)
	if err != nil {
		t.Fatal(err)
	}
	var want []int32
	for _, id := range direct.IDs {
		if id != 42 {
			want = append(want, id)
		}
	}
	if fmt.Sprint(res.IDs) != fmt.Sprint(want) {
		t.Errorf("QueryByID %v != filtered direct query %v", res.IDs, want)
	}
	if _, err := eng.QueryByID(9999, 5); err == nil {
		t.Error("unknown ID should fail")
	}
}

func TestConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	eng, err := Build(genRestaurants(rng, 400), Options{Index: CIUR, Clusters: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Reference answers computed serially.
	type q struct {
		x, y float64
		text string
	}
	qs := make([]q, 16)
	want := make([][]int32, len(qs))
	for i := range qs {
		qs[i] = q{rng.Float64() * 100, rng.Float64() * 100, menuTerms[rng.Intn(len(menuTerms))]}
		res, err := eng.Query(qs[i].x, qs[i].y, qs[i].text, 5)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.IDs
	}
	// The same queries in parallel must return identical results (the
	// I/O statistics interleave, the answers must not).
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < len(qs); i++ {
				idx := (i + seed) % len(qs)
				res, err := eng.Query(qs[idx].x, qs[idx].y, qs[idx].text, 5)
				if err != nil {
					t.Errorf("concurrent query: %v", err)
					return
				}
				if fmt.Sprint(res.IDs) != fmt.Sprint(want[idx]) {
					t.Errorf("concurrent query %d diverged", idx)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestQueryDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	eng, err := Build(genRestaurants(rng, 300), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.Query(42, 42, "sushi ramen", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Query(42, 42, "sushi ramen", 7)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.IDs) != fmt.Sprint(b.IDs) {
		t.Error("repeated query returned different results")
	}
	if a.Stats.NodesRead != b.Stats.NodesRead || a.Stats.ExactSims != b.Stats.ExactSims {
		t.Errorf("repeated query did different work: %+v vs %+v", a.Stats, b.Stats)
	}
}
