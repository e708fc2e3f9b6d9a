package service

import (
	"container/list"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"graphspar/internal/lsst"
	"graphspar/internal/params"
)

// SparsifyParams is the canonical, fully-defaulted request that keys the
// result cache. Handlers fill it from the JSON body and call Canon before
// any lookup, so two requests that differ only in spelled-out defaults
// (e.g. t omitted vs. t=2) hit the same cache line.
type SparsifyParams struct {
	SigmaSq    float64 `json:"sigma2"`
	T          int     `json:"t,omitempty"`
	NumVectors int     `json:"r,omitempty"`
	TreeAlg    string  `json:"tree,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	MaxEdges   int     `json:"max_edges,omitempty"`
	// Shards > 1 routes the job through the shard-parallel engine
	// (internal/engine); 0 or 1 is the single-shot pipeline. Shards is
	// part of the cache key: a sharded sparsifier and a single-shot one
	// for the same graph are different artifacts and never alias.
	Shards int `json:"shards,omitempty"`
	// Workers is the pipeline's one worker count on every plan (0 = all
	// cores): concurrent shards, and the goroutines of every embedding
	// pass. It can never change the result — output is deterministic for
	// any worker count — so it is deliberately NOT part of the cache key
	// or the session key.
	Workers int `json:"workers,omitempty"`
	// Mode pins the execution path: "single", "sharded" or "multilevel".
	// The wire contract is explicit — "auto" (the facade's graph-size
	// policy) is rejected, because a cache key must not depend on which
	// path the policy would pick for a particular graph. "single" and
	// "sharded" are redundant with Shards and canonicalize to ""; only
	// "multilevel" survives canonicalization as a mode string.
	Mode string `json:"mode,omitempty"`
	// CoarsenLevels/CoarsenRatio tune the multilevel hierarchy (0 keeps
	// the library defaults: depth bounded by the coarsest-size floor,
	// ratio 0.7). Only meaningful — and only accepted — with
	// mode=multilevel.
	CoarsenLevels int     `json:"coarsen_levels,omitempty"`
	CoarsenRatio  float64 `json:"coarsen_ratio,omitempty"`
	// Incremental answers the job from the graph's persistent session —
	// the live maintainer PATCH and stream batches keep certified — rather
	// than sparsifying from scratch, building that session first if none
	// is resident. Incremental jobs bypass the result cache entirely:
	// their output is the session's state, not a function of
	// (graph, params).
	Incremental bool `json:"incremental,omitempty"`
}

// wireLimits bounds remotely-submitted work: the paper uses t ≤ 3 and
// r = O(log n), so these ceilings are far above any useful setting while
// keeping a remote client from submitting unbounded (and uncancellable)
// per-job CPU work. The checks themselves live in internal/params, shared
// with the pipelines' own validation.
var wireLimits = params.Limits{
	MaxT:          16,
	MaxNumVectors: 1024,
	MaxShards:     256,
	MaxWorkers:    64,
}

// Canon applies the service-level defaults (matching core.Options'
// defaulting where the values are n-independent) and normalizes the tree
// algorithm name. Unusable values come back as the typed errors of
// internal/params (all matching params.ErrInvalid), which errStatus maps
// to HTTP 400.
func (p *SparsifyParams) Canon() error {
	if err := params.Sigma2(p.SigmaSq); err != nil {
		return err
	}
	if p.T <= 0 {
		p.T = 2
	}
	if p.NumVectors < 0 {
		p.NumVectors = 0 // 0 keeps core's O(log n) default
	}
	if err := params.Embed(p.T, p.NumVectors, wireLimits); err != nil {
		return err
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.MaxEdges < 0 {
		p.MaxEdges = 0
	}
	alg, err := lsst.Parse(p.TreeAlg)
	if err != nil {
		return err
	}
	p.TreeAlg = alg.String()

	if p.Shards < 0 {
		p.Shards = 0
	}
	if p.Shards == 1 {
		p.Shards = 0 // canonical single-shot form
	}
	if p.Workers < 0 {
		p.Workers = 0
	}
	if err := params.Sharding(p.Shards, p.Workers, wireLimits); err != nil {
		return err
	}
	if err := p.canonMode(); err != nil {
		return err
	}
	if p.Incremental && p.MaxEdges > 0 {
		// The maintainer has no edge budget: re-filter rounds admit
		// whatever the certificate needs. Reject rather than silently
		// returning an unbounded result.
		return fmt.Errorf("%w: max_edges does not compose with incremental", params.ErrBadCombination)
	}
	return nil
}

// canonMode validates the execution-mode request against the shared
// compatibility table (params.Plan, plus the wire-only rules) and reduces
// it to its canonical wire spelling. Requires the shards field to be
// canonical already (negative and 1 folded to 0), so mode/shards
// contradictions are judged against what the key will actually store.
func (p *SparsifyParams) canonMode() error {
	if p.Mode == "auto" {
		// ParseMode accepts "auto", but on the wire it would make the cache
		// key depend on the facade's per-graph policy; the contract here is
		// an explicit path (or no mode field at all).
		return fmt.Errorf("%w: mode \"auto\" is a client-side policy; omit mode or request single, sharded or multilevel", params.ErrBadMode)
	}
	mode, err := params.ParseMode(p.Mode)
	if err != nil {
		return err
	}
	if mode == params.ModeAuto {
		// No mode field: shards alone spell the path.
		mode = params.ModeSingleShot
		if p.Shards > 1 {
			mode = params.ModeSharded
		}
	}
	if err := params.Plan(mode, p.Shards, p.MaxEdges, p.CoarsenLevels, p.CoarsenRatio); err != nil {
		return err
	}
	if mode == params.ModeSharded && p.Shards == 0 {
		// The wire has no default arity (and Canon folded shards=1 to 0).
		return fmt.Errorf("%w: mode=sharded requires shards > 1", params.ErrBadCombination)
	}
	if mode == params.ModeMultilevel && p.Incremental {
		return fmt.Errorf("%w: multilevel does not compose with incremental", params.ErrBadCombination)
	}
	// "single" and "sharded" are redundant with Shards; only "multilevel"
	// survives as a mode string.
	p.Mode = ""
	if mode == params.ModeMultilevel {
		p.Mode = mode.String()
	}
	return nil
}

// The key builders below run on every job submission (key + family on
// each cache lookup), so they append with strconv into one sized buffer
// instead of going through fmt — the Sprintf spelling boxed every
// argument and dominated the submit path's allocation profile. Floats
// use the shortest round-trip form ('g', -1), which is injective on
// float64, so distinct parameters always produce distinct keys.

// appendKnobs appends the σ²-independent knob fields shared by key and
// family, in the canonical field order.
func (p SparsifyParams) appendKnobs(b []byte) []byte {
	b = append(b, "|t="...)
	b = strconv.AppendInt(b, int64(p.T), 10)
	b = append(b, "|r="...)
	b = strconv.AppendInt(b, int64(p.NumVectors), 10)
	b = append(b, "|tree="...)
	b = append(b, p.TreeAlg...)
	b = append(b, "|seed="...)
	b = strconv.AppendUint(b, p.Seed, 10)
	b = append(b, "|max="...)
	b = strconv.AppendInt(b, int64(p.MaxEdges), 10)
	b = append(b, "|sh="...)
	b = strconv.AppendInt(b, int64(p.Shards), 10)
	b = append(b, "|mode="...)
	b = append(b, p.Mode...)
	b = append(b, "|cl="...)
	b = strconv.AppendInt(b, int64(p.CoarsenLevels), 10)
	b = append(b, "|cr="...)
	b = strconv.AppendFloat(b, p.CoarsenRatio, 'g', -1, 64)
	return b
}

// keyBufLen sizes the append buffer so a typical key builds in exactly
// one allocation (plus the final string conversion).
const keyBufLen = 96

// key returns the exact cache key for canonicalized params on a graph.
// Workers is absent on purpose: it cannot affect the result.
func (p SparsifyParams) key(graphHash string) string {
	b := make([]byte, 0, len(graphHash)+keyBufLen)
	b = append(b, graphHash...)
	b = append(b, "|s2="...)
	b = strconv.AppendFloat(b, p.SigmaSq, 'g', -1, 64)
	b = p.appendKnobs(b)
	return string(b)
}

// sessionKey fingerprints the parameters that shape a live maintainer —
// everything that changes the maintained sparsifier — so a persistent
// session is only reused by requests that would have configured it
// identically. Workers is excluded (wall-clock only, like the cache
// key), as is MaxEdges (it cannot compose with maintenance at all).
func (p SparsifyParams) sessionKey() string {
	b := make([]byte, 0, keyBufLen)
	b = append(b, "s2="...)
	b = strconv.AppendFloat(b, p.SigmaSq, 'g', -1, 64)
	b = append(b, "|t="...)
	b = strconv.AppendInt(b, int64(p.T), 10)
	b = append(b, "|r="...)
	b = strconv.AppendInt(b, int64(p.NumVectors), 10)
	b = append(b, "|tree="...)
	b = append(b, p.TreeAlg...)
	b = append(b, "|seed="...)
	b = strconv.AppendUint(b, p.Seed, 10)
	b = append(b, "|sh="...)
	b = strconv.AppendInt(b, int64(p.Shards), 10)
	return string(b)
}

// family groups cache lines that differ only in σ², enabling the
// coarser-target lookup: a sparsifier built for σ²=50 also certifies any
// request for σ² ≥ 50 on the same graph with the same knobs. Sharded,
// single-shot and multilevel families are disjoint.
func (p SparsifyParams) family(graphHash string) string {
	b := make([]byte, 0, len(graphHash)+keyBufLen)
	b = append(b, graphHash...)
	b = p.appendKnobs(b)
	return string(b)
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits        int64 `json:"hits"`
	CoarserHits int64 `json:"coarser_hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	Entries     int   `json:"entries"`
	Capacity    int   `json:"capacity"`
}

type cacheEntry struct {
	key     string
	family  string
	sigmaSq float64 // requested target this entry was built for
	result  *JobResult
}

// ResultCache is a bounded LRU of completed sparsification results.
// Lookup supports both exact matches and "coarser σ²" matches: among the
// cached entries for the same (graph, knobs) family, the one with the
// smallest requested σ² that still meets the asked target is reused.
type ResultCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // front = most recently used
	byKey    map[string]*list.Element // exact key → element
	byFamily map[string]map[*list.Element]struct{}
	stats    CacheStats
}

// NewResultCache builds a cache holding up to capacity results
// (capacity <= 0 disables caching: every lookup misses, every put drops).
func NewResultCache(capacity int) *ResultCache {
	return &ResultCache{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
		byFamily: make(map[string]map[*list.Element]struct{}),
	}
}

// Get returns a cached result for the request, trying the exact key
// first and then the best coarser-σ² entry in the same family. The
// second return distinguishes exact hits (CacheExact), coarser hits
// (CacheCoarser), and misses (CacheMiss).
func (c *ResultCache) Get(graphHash string, p SparsifyParams) (*JobResult, CacheOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[p.key(graphHash)]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*cacheEntry).result, CacheExact
	}
	// Coarser lookup: any family entry built for a tighter or equal σ²
	// whose achieved condition number still meets this request.
	var best *list.Element
	for el := range c.byFamily[p.family(graphHash)] {
		ce := el.Value.(*cacheEntry)
		if ce.sigmaSq <= p.SigmaSq && ce.result.SigmaSqAchieved <= p.SigmaSq {
			if best == nil || ce.sigmaSq > best.Value.(*cacheEntry).sigmaSq {
				best = el // prefer the sparsest certificate that still qualifies
			}
		}
	}
	if best != nil {
		c.ll.MoveToFront(best)
		c.stats.CoarserHits++
		// Re-judge the target flag against THIS request: the stored result
		// may have missed its own (tighter) target while still certifying
		// the looser one asked for here.
		res := *best.Value.(*cacheEntry).result
		res.TargetMet = res.SigmaSqAchieved <= p.SigmaSq
		// Memoize under the exact key so repeats of this request take the
		// O(1) path instead of rescanning the family. The alias keeps the
		// source's build-σ² so certificate preference stays truthful.
		c.putLocked(graphHash, p, best.Value.(*cacheEntry).sigmaSq, &res)
		return &res, CacheCoarser
	}
	c.stats.Misses++
	return nil, CacheMiss
}

// CacheOutcome labels a cache lookup.
type CacheOutcome string

// Lookup outcomes.
const (
	CacheMiss    CacheOutcome = "miss"
	CacheExact   CacheOutcome = "exact"
	CacheCoarser CacheOutcome = "coarser"
)

// Put stores a completed result, evicting the least recently used entry
// when over capacity.
func (c *ResultCache) Put(graphHash string, p SparsifyParams, res *JobResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(graphHash, p, p.SigmaSq, res)
}

// putLocked inserts under p's exact key; buildSigma records which target
// the result was actually built for (differs from p.SigmaSq for alias
// entries created on coarser hits).
func (c *ResultCache) putLocked(graphHash string, p SparsifyParams, buildSigma float64, res *JobResult) {
	if c.capacity <= 0 || res == nil {
		return
	}
	key := p.key(graphHash)
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).result = res
		c.ll.MoveToFront(el)
		return
	}
	ce := &cacheEntry{key: key, family: p.family(graphHash), sigmaSq: buildSigma, result: res}
	el := c.ll.PushFront(ce)
	c.byKey[key] = el
	fam := c.byFamily[ce.family]
	if fam == nil {
		fam = make(map[*list.Element]struct{})
		c.byFamily[ce.family] = fam
	}
	fam[el] = struct{}{}
	for c.ll.Len() > c.capacity {
		c.evictOldest()
	}
}

func (c *ResultCache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	c.ll.Remove(el)
	ce := el.Value.(*cacheEntry)
	delete(c.byKey, ce.key)
	if fam := c.byFamily[ce.family]; fam != nil {
		delete(fam, el)
		if len(fam) == 0 {
			delete(c.byFamily, ce.family)
		}
	}
	c.stats.Evictions++
}

// InvalidateGraph drops every cached result for the given graph hash.
// The PATCH handler calls it after mutating a registered graph: the new
// content hash re-keys all future lookups, so the old hash's entries can
// never hit again and would only pin dead sparsifiers in memory.
func (c *ResultCache) InvalidateGraph(graphHash string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	prefix := graphHash + "|"
	removed := 0
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		ce := el.Value.(*cacheEntry)
		if !strings.HasPrefix(ce.key, prefix) {
			continue
		}
		c.ll.Remove(el)
		delete(c.byKey, ce.key)
		if fam := c.byFamily[ce.family]; fam != nil {
			delete(fam, el)
			if len(fam) == 0 {
				delete(c.byFamily, ce.family)
			}
		}
		removed++
	}
	return removed
}

// Stats snapshots the counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Capacity = c.capacity
	return s
}

// Len reports the number of cached results.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
