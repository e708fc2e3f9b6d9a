// Package sessions keeps live dynamic maintainers resident between
// requests, turning the service's incremental path into true streaming:
// a PATCH or an incremental job against a hot graph mutates the stored
// graph and its maintained sparsifier in one step, against the factor
// that is already standing, instead of rebuilding a maintainer per
// request.
//
// The Manager is keyed by graph name. Each session owns one Maintainer
// behind a single-writer actor loop — a goroutine that executes queued
// requests strictly in order — so concurrent PATCH, stream and job
// traffic against the same graph serializes on the maintainer without
// the maintainer itself needing to be concurrency-safe. Sessions are
// bounded three ways: an LRU cap on the session count, a memory budget
// over the maintainers' estimated resident bytes (graphs, Cholesky
// factor, probe embedding), and an idle TTL. Eviction, expiry and
// invalidation all close the session; a caller observing ErrSessionGone
// looks the session up again and, on a miss, builds a fresh maintainer
// from the stored graph — which is also the crash-safety story: a
// session whose maintainer hit an internal error is simply dropped and
// rebuilt on next use.
package sessions

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"

	"graphspar/internal/dynamic"
	"graphspar/internal/graph"
)

// ErrSessionGone reports that a session was evicted, expired or
// invalidated between lookup and use. Callers look it up again (and
// rebuild it on a miss).
var ErrSessionGone = errors.New("sessions: session is gone")

// Maintainer is the live-sparsifier surface a session drives. It is
// satisfied both by *dynamic.Maintainer and by the public facade's
// *Stream (whose methods alias the same types), so cmd/serve can inject
// facade-built maintainers without this package — or internal/service —
// importing the root package.
type Maintainer interface {
	Apply(ctx context.Context, batch []dynamic.Update) error
	Rebuild(ctx context.Context) error
	Graph() *graph.Graph
	Sparsifier() *graph.Graph
	Cond() float64
	TargetMet() bool
	Stats() dynamic.Stats
	ResidentBytes() int64
}

// Stats is the per-session telemetry surfaced by the HTTP service and by
// the facade's Stream.SessionStats, so library and service users read
// the same numbers.
type Stats struct {
	ResidentBytes  int64   `json:"resident_bytes"`
	BatchesApplied int     `json:"batches_applied"`
	UpdatesApplied int     `json:"updates_applied"`
	RebuildsForced int     `json:"rebuilds_forced"`
	Refilters      int     `json:"refilter_rounds"`
	Verifies       int     `json:"verifies"`
	Cond           float64 `json:"condition_number"`
	TargetMet      bool    `json:"target_met"`
}

// Snapshot derives session telemetry from a maintainer's own counters.
func Snapshot(m Maintainer) Stats {
	s := m.Stats()
	return Stats{
		ResidentBytes:  m.ResidentBytes(),
		BatchesApplied: s.Applies,
		UpdatesApplied: s.Updates,
		RebuildsForced: s.Rebuilds,
		Refilters:      s.Refilters,
		Verifies:       s.Verifies,
		Cond:           s.Cond,
		TargetMet:      s.TargetMet,
	}
}

// ManagerStats snapshots the manager's bookkeeping.
type ManagerStats struct {
	Sessions      int   `json:"sessions"`
	ResidentBytes int64 `json:"resident_bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Installs      int64 `json:"installs"`
	Evictions     int64 `json:"evictions"`
	Expirations   int64 `json:"expirations"`
	Invalidations int64 `json:"invalidations"`
}

// Options sizes a Manager. Zero values take the defaults; a negative
// MaxSessions disables the manager outright (every Get misses, every
// Install is dropped), which lets callers thread one code path whether
// sessions are on or off.
type Options struct {
	// MaxSessions caps resident maintainers; least-recently-used sessions
	// are evicted beyond it. Default 32.
	MaxSessions int
	// MaxResidentBytes budgets the summed ResidentBytes estimates. The
	// most recently used session is never evicted for budget, so a single
	// oversized graph still gets exactly one resident session instead of
	// thrashing. Default 1 GiB.
	MaxResidentBytes int64
	// IdleTTL expires sessions untouched for this long (checked by each
	// session's own actor loop, so expiry needs no background sweeper).
	// Default 15 minutes; negative disables expiry.
	IdleTTL time.Duration
	// Hash fingerprints a graph. Sessions track the hash of their
	// maintainer's current graph so callers can check registry/session
	// consistency; it must be the same function the caller keys graphs
	// with. Nil defaults to graph.ContentHash — the same canonical
	// encoding the service registry uses.
	Hash func(*graph.Graph) string
}

// Manager owns the resident sessions. Safe for concurrent use.
type Manager struct {
	opt Options
	now func() time.Time // test hook

	mu       sync.Mutex
	sessions map[string]*Session
	lru      *list.List // front = most recently used; values are *Session
	resident int64
	closed   bool
	stats    ManagerStats
}

// NewManager builds a Manager from the options.
func NewManager(opt Options) *Manager {
	if opt.MaxSessions == 0 {
		opt.MaxSessions = 32
	}
	if opt.MaxResidentBytes == 0 {
		opt.MaxResidentBytes = 1 << 30
	}
	if opt.IdleTTL == 0 {
		opt.IdleTTL = 15 * time.Minute
	}
	if opt.Hash == nil {
		opt.Hash = (*graph.Graph).ContentHash
	}
	return &Manager{
		opt:      opt,
		now:      time.Now,
		sessions: make(map[string]*Session),
		lru:      list.New(),
	}
}

// Get returns the live session for name whose current graph hash equals
// hash, touching its LRU slot. Any mismatch — hash or (when key is
// non-empty) parameter fingerprint — is a plain miss that leaves the
// session alone: the caller's hash may be a stale registry snapshot
// while the session itself is perfectly in lockstep, so Get must never
// destroy on its own authority. Genuinely stale sessions are reaped by
// the callers that know (InvalidateStale after an authoritative registry
// swap, Session.Invalidate from a failed in-actor consistency check) or
// age out via TTL/LRU.
func (mgr *Manager) Get(name, hash, key string) *Session {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if mgr.closed {
		return nil
	}
	s, ok := mgr.sessions[name]
	if !ok || s.hash != hash || (key != "" && s.key != key) {
		mgr.stats.Misses++
		return nil
	}
	mgr.stats.Hits++
	s.lastUsed = mgr.now()
	mgr.lru.MoveToFront(s.el)
	return s
}

// Install registers a freshly built maintainer as the live session for
// name, replacing any existing session for that name (the newer state
// wins). The maintainer must not be used directly afterwards — the
// session's actor loop owns it. Returns nil when the manager is disabled
// or closed (the maintainer is then simply dropped).
func (mgr *Manager) Install(name, key string, m Maintainer) *Session {
	if mgr == nil || mgr.opt.MaxSessions < 0 {
		return nil
	}
	// Estimate and fingerprint outside the lock: both walk the graph.
	bytes := m.ResidentBytes()
	hash := mgr.opt.Hash(m.Graph())

	mgr.mu.Lock()
	if mgr.closed {
		mgr.mu.Unlock()
		return nil
	}
	if old, ok := mgr.sessions[name]; ok {
		mgr.removeLocked(old)
		mgr.stats.Invalidations++
	}
	s := &Session{
		name: name,
		key:  key,
		mgr:  mgr,
		m:    m,
		reqs: make(chan *request), // unbuffered: accepted work always runs
		gone: make(chan struct{}),
		dead: make(chan struct{}),
	}
	s.hash, s.bytes, s.lastUsed = hash, bytes, mgr.now()
	s.el = mgr.lru.PushFront(s)
	mgr.sessions[name] = s
	mgr.resident += bytes
	mgr.stats.Installs++
	mgr.enforceLocked(s)
	ttl := mgr.opt.IdleTTL
	mgr.mu.Unlock()

	go s.loop(ttl)
	return s
}

// Invalidate closes any session for name, whatever its state. Only for
// callers with absolute knowledge that no session for the name can be
// valid — the graph was deleted. Reports whether one existed.
func (mgr *Manager) Invalidate(name string) bool {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	s, ok := mgr.sessions[name]
	if !ok {
		return false
	}
	mgr.removeLocked(s)
	mgr.stats.Invalidations++
	return true
}

// InvalidateStale closes the session for name unless its graph hash is
// hash. Callers who just advanced the registry authoritatively (the
// winner of a cold PATCH swap) use it to reap a session left behind on
// the old graph without any risk to a healthy in-lockstep one.
func (mgr *Manager) InvalidateStale(name, hash string) bool {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	s, ok := mgr.sessions[name]
	if !ok || s.hash == hash {
		return false
	}
	mgr.removeLocked(s)
	mgr.stats.Invalidations++
	return true
}

// Stats snapshots the manager counters.
func (mgr *Manager) Stats() ManagerStats {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	st := mgr.stats
	st.Sessions = len(mgr.sessions)
	st.ResidentBytes = mgr.resident
	st.BudgetBytes = mgr.opt.MaxResidentBytes
	return st
}

// Len reports the number of resident sessions.
func (mgr *Manager) Len() int {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	return len(mgr.sessions)
}

// Close drains the manager: no new sessions or hits, every session
// finishes the work already accepted by its actor loop, and the call
// returns once all loops have exited (or ctx expires). Used for graceful
// daemon shutdown.
func (mgr *Manager) Close(ctx context.Context) error {
	mgr.mu.Lock()
	mgr.closed = true
	closing := make([]*Session, 0, len(mgr.sessions))
	for _, s := range mgr.sessions {
		closing = append(closing, s)
	}
	for _, s := range closing {
		mgr.removeLocked(s)
	}
	mgr.mu.Unlock()
	for _, s := range closing {
		select {
		case <-s.dead:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// removeLocked unregisters a session and signals its actor to drain.
// Idempotent; callers hold mgr.mu.
func (mgr *Manager) removeLocked(s *Session) {
	if s.removed {
		return
	}
	s.removed = true
	delete(mgr.sessions, s.name)
	mgr.lru.Remove(s.el)
	mgr.resident -= s.bytes
	close(s.gone)
}

// enforceLocked evicts least-recently-used sessions while the count cap
// or the memory budget is exceeded, never evicting keep (the session
// that was just installed or touched — evicting it would thrash).
func (mgr *Manager) enforceLocked(keep *Session) {
	for len(mgr.sessions) > mgr.opt.MaxSessions || mgr.resident > mgr.opt.MaxResidentBytes {
		victim := mgr.oldestLocked(keep)
		if victim == nil {
			return
		}
		mgr.removeLocked(victim)
		mgr.stats.Evictions++
	}
}

func (mgr *Manager) oldestLocked(skip *Session) *Session {
	for el := mgr.lru.Back(); el != nil; el = el.Prev() {
		if s := el.Value.(*Session); s != skip {
			return s
		}
	}
	return nil
}

// touched is called by a session's actor after each executed request:
// bump the LRU slot and, after a mutating request, re-estimate resident
// bytes, refresh the graph fingerprint (reusing newHash when the caller
// already computed it — e.g. from a registry swap — instead of a second
// O(m) hash pass) and re-enforce the budget.
func (mgr *Manager) touched(s *Session, mutated bool, newHash string) {
	var bytes int64
	var hash string
	if mutated {
		bytes = s.m.ResidentBytes()
		hash = newHash
		if hash == "" {
			hash = mgr.opt.Hash(s.m.Graph())
		}
	}
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if s.removed {
		return
	}
	s.lastUsed = mgr.now()
	mgr.lru.MoveToFront(s.el)
	if !mutated {
		return
	}
	mgr.resident += bytes - s.bytes
	s.bytes, s.hash = bytes, hash
	mgr.enforceLocked(s)
}

// expire removes s if it is still registered and has sat idle past the
// TTL. Reports whether the session was removed.
func (mgr *Manager) expire(s *Session, ttl time.Duration) bool {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if s.removed {
		return true
	}
	if mgr.now().Sub(s.lastUsed) < ttl {
		return false
	}
	mgr.removeLocked(s)
	mgr.stats.Expirations++
	return true
}

// ---------------------------------------------------------------- session

type request struct {
	fn     func(m Maintainer)
	done   chan struct{}
	mutate bool
	hash   string // set by a mutating fn; "" = manager recomputes
}

// Session is one resident maintainer behind its single-writer actor
// loop. Obtain via Manager.Get or Manager.Install; all access to the
// maintainer goes through Do.
type Session struct {
	name string
	key  string
	mgr  *Manager

	reqs chan *request
	gone chan struct{} // closed when the session stops accepting work
	dead chan struct{} // closed when the actor loop has fully exited

	m Maintainer // owned by the actor goroutine

	// Guarded by mgr.mu:
	el       *list.Element
	hash     string
	bytes    int64
	lastUsed time.Time
	removed  bool
}

// Name returns the graph name the session serves.
func (s *Session) Name() string { return s.name }

// Key returns the parameter fingerprint the session was installed under.
func (s *Session) Key() string { return s.key }

// Hash returns the content hash of the maintainer's current graph (as of
// the last completed request).
func (s *Session) Hash() string {
	s.mgr.mu.Lock()
	defer s.mgr.mu.Unlock()
	return s.hash
}

// Invalidate closes this specific session if it is still the registered
// one for its name; a newer replacement session under the same name is
// left untouched. Used when a request executed inside this session
// discovered it diverged from the caller's source of truth.
func (s *Session) Invalidate() {
	mgr := s.mgr
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if cur, ok := mgr.sessions[s.name]; ok && cur == s {
		mgr.removeLocked(s)
		mgr.stats.Invalidations++
	}
}

// Do runs fn inside the session's single-writer loop, serialized against
// every other request. fn receives the live maintainer, must not retain
// it, and must not mutate it — use DoMutate for that, so the manager's
// hash and memory accounting stay truthful. Do returns fn's error,
// ErrSessionGone if the session was closed before the request was
// accepted, or ctx's error while waiting for a slot. Once accepted, a
// request always runs — even during drain — so state transitions fn
// makes are never half-applied by cancellation.
func (s *Session) Do(ctx context.Context, fn func(m Maintainer) error) error {
	return s.do(ctx, false, func(m Maintainer) (string, error) { return "", fn(m) })
}

// DoMutate is Do for requests that change the maintainer's state: after
// fn returns the session re-estimates its resident bytes and refreshes
// its graph fingerprint. fn may return the new content hash when its own
// bookkeeping already computed it (the service returns the registry
// swap's hash), avoiding a second O(m) hash pass; return "" to have the
// manager recompute. When fn errors after mutating past a commit point,
// the caller must invalidate the session — accounting is only refreshed
// on success.
func (s *Session) DoMutate(ctx context.Context, fn func(m Maintainer) (newHash string, err error)) error {
	return s.do(ctx, true, fn)
}

func (s *Session) do(ctx context.Context, mutate bool, fn func(m Maintainer) (string, error)) error {
	var err error
	req := &request{mutate: mutate, done: make(chan struct{})}
	req.fn = func(m Maintainer) {
		var h string
		h, err = fn(m)
		if err == nil {
			req.hash = h
		} else {
			req.mutate = false // failed request: leave accounting untouched
		}
	}
	select {
	case s.reqs <- req:
	case <-s.gone:
		return ErrSessionGone
	case <-ctx.Done():
		return ctx.Err()
	}
	<-req.done
	return err
}

// Stats snapshots the session's telemetry through the actor loop.
func (s *Session) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := s.Do(ctx, func(m Maintainer) error {
		st = Snapshot(m)
		return nil
	})
	return st, err
}

// loop is the single-writer actor: it owns the maintainer, executes
// requests in arrival order, arms the idle TTL, and on close drains the
// requests that were already accepted before exiting.
func (s *Session) loop(ttl time.Duration) {
	defer close(s.dead)
	var idle *time.Timer
	var idleC <-chan time.Time
	if ttl > 0 {
		idle = time.NewTimer(ttl)
		defer idle.Stop()
		idleC = idle.C
	}
	for {
		select {
		case req := <-s.reqs:
			req.fn(s.m)
			// Publish the new hash and accounting before releasing the
			// caller: once DoMutate returns, Hash() and Get with the
			// post-apply hash must already see this request.
			s.mgr.touched(s, req.mutate, req.hash)
			close(req.done)
			if idle != nil {
				if !idle.Stop() {
					select {
					case <-idle.C:
					default:
					}
				}
				idle.Reset(ttl)
			}
		case <-idleC:
			if !s.mgr.expire(s, ttl) {
				idle.Reset(ttl) // touched since the timer was armed
			}
			// When expired, keep looping: gone is now closed and the next
			// iteration drains any request that won the acceptance race.
		case <-s.gone:
			// Drain: the reqs channel is unbuffered, so only a sender
			// currently blocked in Do can still hand over work; serve
			// those, then exit (senders that lose the race observe gone).
			for {
				select {
				case req := <-s.reqs:
					req.fn(s.m)
					close(req.done)
				default:
					return
				}
			}
		}
	}
}
