package service

import (
	"fmt"
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
	if p.T != 2 || p.Seed != 1 {
		t.Errorf("defaults not applied: %+v", p)
	}
	// Spelled-out defaults key identically to omitted ones.
	q := SparsifyParams{SigmaSq: 100, T: 2, Seed: 1}
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
		{SigmaSq: 100, T: 2_000_000_000},
		{SigmaSq: 100, NumVectors: 2_000_000_000},
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
	// Different knobs (t) are a different family: no coarser reuse.
	p := SparsifyParams{SigmaSq: 200, T: 3}
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
	if c.Len() != 0 {
		t.Errorf("disabled cache stored entries: %d", c.Len())
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
	if c.Len() > 16 {
		t.Errorf("cache over capacity: %d", c.Len())
	}
}

func TestCanonShardParams(t *testing.T) {
	// shards=1 canonicalizes to the single-shot form. Workers survives:
	// it bounds the embedding on every plan, and stays off both keys.
	p := SparsifyParams{SigmaSq: 100, Shards: 1, Workers: 8}
	if err := p.Canon(); err != nil {
		t.Fatal(err)
	}
	if p.Shards != 0 || p.Workers != 8 {
		t.Errorf("single-shot canonical form not applied: %+v", p)
	}
	if bare := testParams(100); p.key("h") != bare.key("h") || p.sessionKey() != bare.sessionKey() {
		t.Error("worker count fragments the single-shot cache or session key")
	}
	q := SparsifyParams{SigmaSq: 100, Shards: 4, Workers: 2}
	if err := q.Canon(); err != nil {
		t.Fatal(err)
	}
	if q.Shards != 4 || q.Workers != 2 {
		t.Errorf("sharded canon: %+v", q)
	}

	for _, bad := range []SparsifyParams{
		{SigmaSq: 100, Shards: 1000},
		{SigmaSq: 100, Shards: 2, Workers: 1000},
		{SigmaSq: 100, Shards: 2, MaxEdges: 50},
	} {
		if err := bad.Canon(); err == nil {
			t.Errorf("Canon(%+v): want error", bad)
		}
	}
}

func TestShardParamsCacheKeys(t *testing.T) {
	single := testParams(100)
	sharded := SparsifyParams{SigmaSq: 100, Shards: 4}
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
	// Different shard counts are different artifacts.
	s8 := sharded
	s8.Shards = 8
	if s8.key("h") == sharded.key("h") {
		t.Error("shard counts share a cache key")
	}
}

func TestCanonModeParams(t *testing.T) {
	// "single" and "sharded" are redundant with the shards field and
	// canonicalize away, so mode can never contradict shards in a stored
	// key; only "multilevel" survives.
	p := SparsifyParams{SigmaSq: 100, Mode: "single"}
	if err := p.Canon(); err != nil {
		t.Fatal(err)
	}
	if p.Mode != "" || p.key("h") != testParams(100).key("h") {
		t.Errorf("mode=single did not canonicalize to the single-shot form: %+v", p)
	}
	q := SparsifyParams{SigmaSq: 100, Mode: "sharded", Shards: 4}
	bare := SparsifyParams{SigmaSq: 100, Shards: 4}
	if err := q.Canon(); err != nil {
		t.Fatal(err)
	}
	if err := bare.Canon(); err != nil {
		t.Fatal(err)
	}
	if q.Mode != "" || q.key("h") != bare.key("h") {
		t.Errorf("mode=sharded did not canonicalize onto shards=4: %+v", q)
	}

	ml := SparsifyParams{SigmaSq: 100, Mode: "multilevel", Workers: 8}
	if err := ml.Canon(); err != nil {
		t.Fatal(err)
	}
	if ml.Mode != "multilevel" || ml.Shards != 0 {
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
	if ml.key("h") == bare.key("h") {
		t.Error("multilevel aliases the sharded cache line")
	}
	// Coarsen knobs shape the hierarchy, hence the artifact and the key.
	tuned := SparsifyParams{SigmaSq: 100, Mode: "multilevel", CoarsenLevels: 3, CoarsenRatio: 0.5}
	if err := tuned.Canon(); err != nil {
		t.Fatal(err)
	}
	if tuned.key("h") == ml.key("h") {
		t.Error("coarsen knobs do not fragment the multilevel cache key")
	}

	for _, bad := range []SparsifyParams{
		{SigmaSq: 100, Mode: "auto"},
		{SigmaSq: 100, Mode: "bogus"},
		{SigmaSq: 100, Mode: "single", Shards: 4},
		{SigmaSq: 100, Mode: "sharded"},
		{SigmaSq: 100, Mode: "sharded", Shards: 1},
		{SigmaSq: 100, Mode: "multilevel", Shards: 2},
		{SigmaSq: 100, Mode: "multilevel", MaxEdges: 50},
		{SigmaSq: 100, Mode: "multilevel", Incremental: true},
		{SigmaSq: 100, CoarsenLevels: 2},
		{SigmaSq: 100, CoarsenRatio: 0.5},
		{SigmaSq: 100, Mode: "multilevel", CoarsenLevels: -1},
		{SigmaSq: 100, Mode: "multilevel", CoarsenRatio: 1.5},
	} {
		if err := bad.Canon(); err == nil {
			t.Errorf("Canon(%+v): want error", bad)
		}
	}
}
