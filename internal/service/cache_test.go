package service

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
)

func testParams(sigma float64) SparsifyParams {
	p := SparsifyParams{SigmaSq: sigma}
	if err := p.Canon(); err != nil {
		panic(err)
	}
	return p
}

// result is a met job whose estimate and certificate both read achieved.
func result(achieved float64) *JobResult {
	return &JobResult{SigmaSqAchieved: achieved, VerifiedCond: achieved, TargetMet: true}
}

func TestParamsCanon(t *testing.T) {
	p := SparsifyParams{SigmaSq: 100}
	if err := p.Canon(); err != nil {
		t.Fatal(err)
	}
	if p.Seed != 1 {
		t.Errorf("defaults not applied: %+v", p)
	}
	// Spelled-out defaults key identically to omitted ones.
	q := SparsifyParams{SigmaSq: 100, Seed: 1}
	if err := q.Canon(); err != nil {
		t.Fatal(err)
	}
	if p.key("h") != q.key("h") {
		t.Errorf("canonical keys differ: %q vs %q", p.key("h"), q.key("h"))
	}

	for _, bad := range []SparsifyParams{
		{SigmaSq: 0},
		{SigmaSq: 1},
		{SigmaSq: -5},
		{SigmaSq: 100, Workers: 2_000_000_000},
	} {
		if err := bad.Canon(); err == nil {
			t.Errorf("Canon(%+v): want error", bad)
		}
	}
}

func TestCacheExactHit(t *testing.T) {
	c := NewResultCache(4)
	p := testParams(100)
	if _, out := c.Get("h1", p); out != CacheMiss {
		t.Fatalf("empty cache: outcome %v", out)
	}
	c.Put("h1", p, result(80))
	res, out := c.Get("h1", p)
	if out != CacheExact || res.SigmaSqAchieved != 80 {
		t.Fatalf("Get = %v, %v; want exact hit", res, out)
	}
	// Different graph hash misses.
	if _, out := c.Get("h2", p); out != CacheMiss {
		t.Errorf("cross-graph lookup: outcome %v", out)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Entries != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCacheCoarserHit(t *testing.T) {
	c := NewResultCache(8)
	// A σ²=50 sparsifier (achieved 40) certifies any σ² ≥ 50 request.
	c.Put("h", testParams(50), result(40))

	res, out := c.Get("h", testParams(200))
	if out != CacheCoarser || res.SigmaSqAchieved != 40 {
		t.Fatalf("coarser lookup = %v, %v; want coarser hit", res, out)
	}
	// A tighter request must NOT reuse a looser sparsifier.
	if _, out := c.Get("h", testParams(10)); out != CacheMiss {
		t.Errorf("tighter request reused looser result: outcome %v", out)
	}
	// Among multiple qualifying entries, prefer the sparsest (largest σ²
	// at or below the request).
	c.Put("h", testParams(100), result(90))
	res, out = c.Get("h", testParams(300))
	if out != CacheCoarser || res.SigmaSqAchieved != 90 {
		t.Errorf("best coarser = %v, %v; want the σ²=100 entry", res, out)
	}
	// Different knobs (seed) are a different family: no coarser reuse.
	p := SparsifyParams{SigmaSq: 200, Seed: 7}
	if err := p.Canon(); err != nil {
		t.Fatal(err)
	}
	if _, out := c.Get("h", p); out != CacheMiss {
		t.Errorf("cross-family coarser reuse: outcome %v", out)
	}
	// A coarser hit is memoized under the exact key: repeating the same
	// request upgrades to an exact hit.
	if _, out := c.Get("h", testParams(300)); out != CacheExact {
		t.Errorf("repeated coarser request not memoized: outcome %v", out)
	}
}

func TestCacheCoarserRespectsAchieved(t *testing.T) {
	c := NewResultCache(4)
	// Entry built for σ²=50 but only achieved 120 (ErrNoTarget path):
	// it cannot certify a σ²=100 request.
	c.Put("h", testParams(50), &JobResult{SigmaSqAchieved: 120, VerifiedCond: 120})
	if _, out := c.Get("h", testParams(100)); out != CacheMiss {
		t.Errorf("unmet-target entry reused: outcome %v", out)
	}
	res, out := c.Get("h", testParams(150))
	if out != CacheCoarser {
		t.Errorf("σ²=150 should qualify (achieved 120): outcome %v", out)
	}
	// The served copy is re-judged against THIS request's target: the
	// stored result missed σ²=50 but satisfies σ²=150.
	if !res.TargetMet {
		t.Error("coarser hit kept the original request's TargetMet=false")
	}
}

// A coarser hit is admitted and re-judged by the certificate, never by the
// estimate: the pipeline's estimates under-report κ.
func TestCacheCoarserJudgesByCertificate(t *testing.T) {
	c := NewResultCache(4)
	// Built at σ² = 50: the estimate reads 54.8, the certificate 56.9.
	c.Put("h", testParams(50), &JobResult{SigmaSqAchieved: 54.8, VerifiedCond: 56.9})
	if res, out := c.Get("h", testParams(55)); out != CacheMiss {
		t.Errorf("σ² = 55 served an entry whose certificate reads 56.9: outcome %v, target_met %v", out, res.TargetMet)
	}
	res, out := c.Get("h", testParams(57))
	if out != CacheCoarser || !res.TargetMet {
		t.Errorf("σ² = 57 against certificate 56.9: outcome %v, want a met coarser hit", out)
	}
	// Without a certificate an entry answers only its own σ².
	c.Put("h2", testParams(50), &JobResult{SigmaSqAchieved: 10, TargetMet: true})
	if _, out := c.Get("h2", testParams(100)); out != CacheMiss {
		t.Errorf("uncertified entry reused for another σ²: outcome %v", out)
	}
	if _, out := c.Get("h2", testParams(50)); out != CacheExact {
		t.Errorf("uncertified entry lost its own σ²: outcome %v", out)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Distinct graph hashes so family-level coarser matching cannot mask
	// the eviction under test.
	c := NewResultCache(2)
	c.Put("h1", testParams(10), result(5))
	c.Put("h2", testParams(20), result(15))
	// Touch h1 so h2 is the LRU victim.
	if _, out := c.Get("h1", testParams(10)); out != CacheExact {
		t.Fatal("expected hit")
	}
	c.Put("h3", testParams(30), result(25))
	if _, out := c.Get("h2", testParams(20)); out != CacheMiss {
		t.Errorf("LRU entry survived eviction: outcome %v", out)
	}
	if _, out := c.Get("h1", testParams(10)); out != CacheExact {
		t.Errorf("recently used entry evicted: outcome %v", out)
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewResultCache(0)
	c.Put("h", testParams(10), result(5))
	if _, out := c.Get("h", testParams(10)); out != CacheMiss {
		t.Errorf("disabled cache returned a hit")
	}
	if c.Stats().Entries != 0 {
		t.Errorf("disabled cache stored entries: %d", c.Stats().Entries)
	}
}

func TestCacheFamilyCleanupAfterEviction(t *testing.T) {
	// Evicting the last member of a family must not leak the family map
	// or corrupt later coarser lookups.
	c := NewResultCache(1)
	c.Put("h", testParams(50), result(40))
	c.Put("h2", testParams(50), result(40)) // evicts the first
	if _, out := c.Get("h", testParams(100)); out != CacheMiss {
		t.Errorf("evicted family still serving: outcome %v", out)
	}
	if _, out := c.Get("h2", testParams(100)); out != CacheCoarser {
		t.Errorf("surviving entry lost: outcome %v", out)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewResultCache(16)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 200; j++ {
				h := fmt.Sprintf("h%d", j%4)
				c.Put(h, testParams(float64(10+j%8*10)), result(5))
				c.Get(h, testParams(float64(10+(j+1)%8*10)))
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if c.Stats().Entries > 16 {
		t.Errorf("cache over capacity: %d", c.Stats().Entries)
	}
}

func TestCanonShardParams(t *testing.T) {
	// Workers survives: it bounds the embedding on every plan, and stays
	// off both keys.
	p := SparsifyParams{SigmaSq: 100, Workers: 8}
	if err := p.Canon(); err != nil {
		t.Fatal(err)
	}
	if p.Mode != "" || p.Workers != 8 {
		t.Errorf("single-shot canonical form not applied: %+v", p)
	}
	if bare := testParams(100); p.key("h") != bare.key("h") || p.key("") != bare.key("") {
		t.Error("worker count fragments the single-shot cache or session key")
	}
	q := SparsifyParams{SigmaSq: 100, Mode: "sharded", Workers: 2}
	if err := q.Canon(); err != nil {
		t.Fatal(err)
	}
	if q.Mode != "sharded" || q.Workers != 2 {
		t.Errorf("sharded canon: %+v", q)
	}

	for _, bad := range []SparsifyParams{
		{SigmaSq: 100, Workers: 1000},
		{SigmaSq: 100, Mode: "sharded", Workers: 1000},
	} {
		if err := bad.Canon(); err == nil {
			t.Errorf("Canon(%+v): want error", bad)
		}
	}
}

func TestShardParamsCacheKeys(t *testing.T) {
	single := testParams(100)
	sharded := SparsifyParams{SigmaSq: 100, Mode: "sharded"}
	if err := sharded.Canon(); err != nil {
		t.Fatal(err)
	}
	// Sharded and single-shot results must never alias, in either the
	// exact key or the coarser-σ² family.
	if single.key("h") == sharded.key("h") {
		t.Error("sharded and single-shot share a cache key")
	}
	if single.family("h") == sharded.family("h") {
		t.Error("sharded and single-shot share a cache family")
	}
	// Workers cannot affect the result and must not fragment the cache.
	w1, w8 := sharded, sharded
	w1.Workers, w8.Workers = 1, 8
	if w1.key("h") != w8.key("h") {
		t.Error("worker count fragments the cache key")
	}
}

func TestCanonModeParams(t *testing.T) {
	// "single" is the wire's default plan and canonicalizes to the bare
	// form; "sharded" and "multilevel" survive as mode strings.
	p := SparsifyParams{SigmaSq: 100, Mode: "single"}
	if err := p.Canon(); err != nil {
		t.Fatal(err)
	}
	if p.Mode != "" || p.key("h") != testParams(100).key("h") {
		t.Errorf("mode=single did not canonicalize to the single-shot form: %+v", p)
	}
	q := SparsifyParams{SigmaSq: 100, Mode: "sharded"}
	if err := q.Canon(); err != nil {
		t.Fatal(err)
	}
	if q.Mode != "sharded" {
		t.Errorf("mode=sharded canonical form: %+v", q)
	}

	ml := SparsifyParams{SigmaSq: 100, Mode: "multilevel", Workers: 8}
	if err := ml.Canon(); err != nil {
		t.Fatal(err)
	}
	if ml.Mode != "multilevel" {
		t.Errorf("multilevel canonical form: %+v", ml)
	}
	// Workers survives for multilevel (it bounds embedding concurrency)
	// but stays off-key.
	if ml.Workers != 8 {
		t.Errorf("multilevel canon dropped workers: %+v", ml)
	}
	w1 := ml
	w1.Workers = 1
	if w1.key("h") != ml.key("h") {
		t.Error("worker count fragments the multilevel cache key")
	}
	// Multilevel is a distinct artifact from both other paths.
	if ml.key("h") == testParams(100).key("h") || ml.family("h") == testParams(100).family("h") {
		t.Error("multilevel aliases the single-shot cache line")
	}
	if ml.key("h") == q.key("h") {
		t.Error("multilevel aliases the sharded cache line")
	}

	for _, bad := range []SparsifyParams{
		{SigmaSq: 100, Mode: "auto"},
		{SigmaSq: 100, Mode: "bogus"},
		{SigmaSq: 100, Mode: "multilevel", Incremental: true},
	} {
		if err := bad.Canon(); err == nil {
			t.Errorf("Canon(%+v): want error", bad)
		}
	}
}

// TestKnobsMatchJSON: the knob table has exactly one row per JSON key of
// SparsifyParams, each row's accessor reaches the field its tag names,
// every int row carries a ceiling and its error, and every keyed or
// stream row has a spelling. A field added without a row fails here.
func TestKnobsMatchJSON(t *testing.T) {
	var p SparsifyParams
	typ := reflect.TypeOf(p)
	if len(knobs) != typ.NumField() {
		t.Errorf("%d knob rows for %d SparsifyParams fields", len(knobs), typ.NumField())
	}
	for i := 0; i < typ.NumField(); i++ {
		tag, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		var rows []knob
		for _, k := range knobs {
			if k.name == tag {
				rows = append(rows, k)
			}
		}
		if len(rows) != 1 {
			t.Errorf("JSON key %q has %d knob rows, want 1", tag, len(rows))
			continue
		}
		field := reflect.ValueOf(&p).Elem().Field(i).Addr()
		if got := reflect.ValueOf(rows[0].field(&p)); got.Pointer() != field.Pointer() || got.Type() != field.Type() {
			t.Errorf("knob %q reaches a %v, not field %s", tag, got.Type(), typ.Field(i).Name)
		}
		if _, isInt := rows[0].field(&p).(*int); isInt && (rows[0].ceiling <= 0 || rows[0].err == nil) {
			t.Errorf("int knob %q has no ceiling or no typed error", tag)
		}
		// appendValue and parse cover only the field types their rows
		// hold; each panics on any other.
		if k := rows[0]; k.keyed || k.stream {
			v := string(k.appendValue(nil, &p))
			if k.stream {
				if err := k.parse(&p, v); err != nil {
					t.Errorf("knob %q does not parse its own spelling %q: %v", tag, v, err)
				}
			}
		}
	}
	if knobs[0].field(&p) != any(&p.SigmaSq) {
		t.Error("row 0 must be σ², the knob a cache family leaves free")
	}
}

// TestStreamQueryRoundTrip: for any parameters the stream endpoint can
// carry, the server's parse of StreamQuery is their Canon form as a
// session request (Incremental set) — or the very error Canon gives
// that request. Values sit around every ceiling, at the float edges and
// on every mode spelling.
func TestStreamQueryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	sigmas := []float64{0, -3, 1, 1.0000000000000002, 1.5, 50, 100, 1e300, 2.5e-7, math.Inf(1), math.Inf(-1), math.NaN()}
	ok := 0
	for i := 0; i < 4000; i++ {
		var p SparsifyParams
		for _, k := range knobs {
			if !k.stream {
				continue
			}
			switch v := k.field(&p).(type) {
			case *float64:
				*v = sigmas[rng.IntN(len(sigmas))]
			case *int:
				c := k.ceiling
				*v = []int{-7, -1, 0, 1, 2, c - 1, c, c + 1, rng.IntN(c + 2)}[rng.IntN(9)]
			case *uint64:
				*v = []uint64{0, 1, 7, math.MaxUint64, rng.Uint64()}[rng.IntN(5)]
			case *string: // the accepted spellings twice as often as the rejected ones
				*v = []string{"", "single", "sharded", "", "single", "sharded", "multilevel", "auto", "bogus"}[rng.IntN(9)]
			default:
				t.Fatalf("knob %q: no generator for %T", k.name, v)
			}
		}
		want := p
		want.Incremental = true
		wantErr := want.Canon()
		got, err := streamParams(p.StreamQuery())
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%+v: stream error %v, Canon error %v", p, err, wantErr)
		}
		if err == nil {
			ok++
			if got != want {
				t.Fatalf("%+v: stream reads back %+v, Canon form is %+v", p, got, want)
			}
		}
	}
	if ok < 800 { // 1035 with this seed
		t.Fatalf("only %d of 4000 draws were valid; the property is barely exercised", ok)
	}
}
