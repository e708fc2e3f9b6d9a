package service

import (
	"container/list"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"graphspar/internal/params"
)

// SparsifyParams is the canonical, fully-defaulted request that keys the
// result cache. Handlers fill it from the JSON body and call Canon before
// any lookup, so two requests that differ only in spelled-out defaults
// (e.g. seed omitted vs. seed=1) hit the same cache line.
type SparsifyParams struct {
	SigmaSq float64 `json:"sigma2"`
	Seed    uint64  `json:"seed,omitempty"`
	// Workers is the pipeline's one worker count on every plan (0 = all
	// cores): concurrent shards, and the goroutines of every embedding
	// pass. It can never change the result — output is deterministic for
	// any worker count — so it is deliberately NOT part of the cache key
	// or the session key.
	Workers int `json:"workers,omitempty"`
	// Mode picks the execution plan: "single" (the default), "sharded"
	// or "multilevel". The wire contract is explicit — "auto" (the
	// facade's graph-size policy) is rejected, because a cache key must
	// not depend on which plan the policy would pick for a particular
	// graph. Canon spells single-shot as "". Mode is part of the cache
	// and session keys: a sharded sparsifier and a single-shot one for
	// the same graph are different artifacts and never alias.
	Mode string `json:"mode,omitempty"`
	// Incremental answers the job from the graph's persistent session —
	// the live maintainer PATCH and stream batches keep certified — rather
	// than sparsifying from scratch, building that session first if none
	// is resident. Incremental jobs bypass the result cache entirely:
	// their output is the session's state, not a function of
	// (graph, params).
	Incremental bool `json:"incremental,omitempty"`
}

// knob is one row of the wire-knob table: everything a layer needs to
// spell, check or key a field of SparsifyParams without naming it.
type knob struct {
	name   string                    // the JSON key and the stream query key
	field  func(*SparsifyParams) any // *float64, *int, *uint64, *string or *bool
	keyed  bool                      // on the cache and session keys
	stream bool                      // accepted on the stream query
	// Int knobs only: the ceiling Canon enforces, and its typed error.
	ceiling int
	err     error
}

// knobs is the one list of wire knobs, a row per SparsifyParams field
// (TestKnobsMatchJSON keeps the two in step). Canon's ceilings, the cache,
// family and session keys, the stream query's allow-list and parse, and
// the CLI's remote replay all walk it. Row 0, σ², is the knob a cache
// family leaves free.
//
// The ceiling bounds remotely-submitted work: 64 workers is far above any
// useful setting on one daemon while keeping a remote client from asking
// for unbounded per-job fan-out.
var knobs = []knob{
	{name: "sigma2", field: func(p *SparsifyParams) any { return &p.SigmaSq }, keyed: true, stream: true},
	{name: "workers", field: func(p *SparsifyParams) any { return &p.Workers }, stream: true, ceiling: 64, err: params.ErrBadWorkers},
	{name: "seed", field: func(p *SparsifyParams) any { return &p.Seed }, keyed: true, stream: true},
	{name: "mode", field: func(p *SparsifyParams) any { return &p.Mode }, keyed: true, stream: true},
	{name: "incremental", field: func(p *SparsifyParams) any { return &p.Incremental }},
}

// appendValue appends the knob's value in p, spelled as its query value,
// for the field types of the keyed and stream rows. Floats use the
// shortest round-trip form ('g', -1), which is injective on float64, so
// distinct parameters always produce distinct keys.
func (k knob) appendValue(b []byte, p *SparsifyParams) []byte {
	switch v := k.field(p).(type) {
	case *float64:
		return strconv.AppendFloat(b, *v, 'g', -1, 64)
	case *int:
		return strconv.AppendInt(b, int64(*v), 10)
	case *uint64:
		return strconv.AppendUint(b, *v, 10)
	default:
		return append(b, *v.(*string)...)
	}
}

// appendKeyed appends the knob in p as a key segment, |name=value.
func (k knob) appendKeyed(b []byte, p *SparsifyParams) []byte {
	return k.appendValue(append(append(append(b, '|'), k.name...), '='), p)
}

// parse sets the knob in p from its query value, for the field types of
// the stream rows.
func (k knob) parse(p *SparsifyParams, s string) (err error) {
	switch v := k.field(p).(type) {
	case *float64:
		*v, err = strconv.ParseFloat(s, 64)
	case *int:
		*v, err = strconv.Atoi(s)
	case *string:
		*v = s
	default:
		*v.(*uint64), err = strconv.ParseUint(s, 10, 64)
	}
	return err
}

// Canon applies the service-level defaults (matching core.Options'
// defaulting where the values are n-independent). Unusable values come
// back as the typed errors of internal/params (all matching
// params.ErrInvalid), which errStatus maps to HTTP 400.
func (p *SparsifyParams) Canon() error {
	if err := params.Sigma2(p.SigmaSq); err != nil {
		return err
	}
	for _, k := range knobs {
		if n, ok := k.field(p).(*int); ok {
			*n = max(*n, 0) // a negative count means "default", like 0
			if *n > k.ceiling {
				return fmt.Errorf("%w: %s must be at most %d, got %d", k.err, k.name, k.ceiling, *n)
			}
		}
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p.canonMode()
}

// canonMode validates the execution-mode request and reduces it to its
// canonical wire spelling: "" (single-shot), "sharded" or "multilevel".
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
	if mode == params.ModeMultilevel && p.Incremental {
		return fmt.Errorf("%w: mode multilevel does not compose with a session (incremental job or stream)", params.ErrBadCombination)
	}
	p.Mode = ""
	if mode == params.ModeSharded || mode == params.ModeMultilevel {
		p.Mode = mode.String()
	}
	return nil
}

// keyBufLen sizes the append buffer so a typical key builds in exactly
// one allocation (plus the final string conversion).
const keyBufLen = 96

// appendFamily appends graphHash and p's keyed knobs other than σ², each
// as |name=value. The key builders run on every job submission (key +
// family on each cache lookup), so they append with strconv into one
// sized buffer instead of going through fmt.
func (p *SparsifyParams) appendFamily(graphHash string) []byte {
	b := make([]byte, 0, len(graphHash)+keyBufLen)
	b = append(b, graphHash...)
	for _, k := range knobs[1:] {
		if k.keyed {
			b = k.appendKeyed(b, p)
		}
	}
	return b
}

// family groups cache lines that differ only in σ², enabling the
// coarser-target lookup: a sparsifier built for σ²=50 also certifies any
// request for σ² ≥ 50 on the same graph with the same knobs. Sharded,
// single-shot and multilevel families are disjoint.
func (p SparsifyParams) family(graphHash string) string {
	return string(p.appendFamily(graphHash))
}

// key returns the exact cache key for canonicalized params on a graph:
// the family plus σ². Workers and incremental are off it on purpose:
// neither can change the result. key("") is the session key — every
// knob that shapes a live maintainer — so a persistent session is only
// reused by requests that would have configured it identically.
func (p SparsifyParams) key(graphHash string) string {
	return string(knobs[0].appendKeyed(p.appendFamily(graphHash), &p))
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
// cached entries for the same (graph, knobs) family whose verified κ meets
// the asked target, the one built for the largest σ² is reused.
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
	// whose certificate still meets this request. An entry without one
	// (VerifiedCond 0) is never reused for another σ².
	var best *list.Element
	for el := range c.byFamily[p.family(graphHash)] {
		ce := el.Value.(*cacheEntry)
		if k := ce.result.VerifiedCond; ce.sigmaSq <= p.SigmaSq && k > 0 && k <= p.SigmaSq {
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
		res.TargetMet = res.VerifiedCond <= p.SigmaSq
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
