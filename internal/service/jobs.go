package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphspar/internal/graph"
	"graphspar/internal/obs"
	"graphspar/internal/sessions"
)

// Queue errors, mapped to HTTP status codes by the handlers.
var (
	ErrQueueFull     = errors.New("service: job queue is full")
	ErrQueueClosed   = errors.New("service: job queue is shut down")
	ErrJobNotFound   = errors.New("service: job not found")
	ErrJobUnfinished = errors.New("service: job has not finished")
	// ErrNoRunner reports a queue constructed without an execution
	// backend. The service is transport and scheduling only — the
	// production runners are built on the public graphspar facade and
	// injected by cmd/serve, because internal packages must not import
	// the root package (the facade sits on top of them).
	ErrNoRunner = errors.New("service: no sparsify runner configured")
)

// JobStatus is the lifecycle state of a job.
type JobStatus string

// Job lifecycle states. Terminal states are Done, Failed and Canceled.
const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

// JobResult summarizes a completed sparsification plus its independent
// similarity verification (core.VerifySimilarity). The Sparsifier graph
// is retained for edge-list and MatrixMarket downloads.
type JobResult struct {
	EdgesKept       int     `json:"edges_kept"`
	EdgesInput      int     `json:"edges_input"`
	Density         float64 `json:"density"` // |E_P| / |V|
	Reduction       float64 `json:"edge_reduction"`
	SigmaSqAchieved float64 `json:"sigma2_achieved"`
	TargetMet       bool    `json:"target_met"`
	Rounds          int     `json:"rounds"`
	TotalStretch    float64 `json:"total_stretch"`
	Connected       bool    `json:"connected"`
	// Verified* come from the k-step generalized Lanczos check, an
	// estimate independent of the sparsifier's own tracking.
	VerifiedLambdaMax float64 `json:"verified_lambda_max"`
	VerifiedLambdaMin float64 `json:"verified_lambda_min"`
	VerifiedCond      float64 `json:"verified_condition_number"`

	// Sharded-engine metadata, zero for single-shot jobs. ShardSpeedup is
	// the shard phase's parallel efficiency (Σ per-shard CPU / wall).
	Shards       int     `json:"shards,omitempty"`
	CutEdges     int     `json:"cut_edges,omitempty"`
	RecoveredCut int     `json:"recovered_cut_edges,omitempty"`
	ShardSpeedup float64 `json:"shard_speedup,omitempty"`

	// Multilevel-engine metadata, zero for other jobs: the hierarchy depth
	// the run actually used (1 = the coarsening floor stopped it
	// immediately) and how many off-tree edges the per-level re-filters
	// recovered on the way back to the fine graph.
	Multilevel     bool `json:"multilevel,omitempty"`
	CoarsenDepth   int  `json:"coarsen_depth,omitempty"`
	LevelRecovered int  `json:"level_recovered_edges,omitempty"`

	// Incremental-job metadata. WarmSource names the job whose sparsifier
	// seeded the warm start ("" = no warm start was available and the job
	// fell back to a from-scratch run). Refilters/Rebuilds count the
	// maintainer's certificate-restoration work. SessionHit reports that
	// a resident session served the job directly — the per-job
	// dynamic.Resume reconcile/re-embed was skipped entirely — and
	// Session carries the session telemetry whenever a session served the
	// job or was installed by it.
	Incremental bool            `json:"incremental,omitempty"`
	WarmSource  string          `json:"warm_source,omitempty"`
	Refilters   int             `json:"refilter_rounds,omitempty"`
	Rebuilds    int             `json:"rebuilds,omitempty"`
	SessionHit  bool            `json:"session_hit,omitempty"`
	Session     *sessions.Stats `json:"session,omitempty"`

	// Phases is the per-phase trace of this job's pipeline run (partition,
	// shard, stitch, embed, verify, ...), in execution order. Empty for
	// cache hits and session hits — no pipeline ran.
	Phases []PhaseMs `json:"phases,omitempty"`

	Sparsifier *graph.Graph `json:"-"`
}

// Job is one sparsification request moving through the queue. Fields are
// guarded by the owning Queue's mutex; Snapshot returns a consistent copy.
type Job struct {
	ID         string         `json:"id"`
	GraphName  string         `json:"graph"`
	GraphHash  string         `json:"graph_hash"`
	Params     SparsifyParams `json:"params"`
	Status     JobStatus      `json:"status"`
	CacheHit   CacheOutcome   `json:"cache,omitempty"` // exact | coarser, when served from cache
	Error      string         `json:"error,omitempty"`
	Submitted  time.Time      `json:"submitted_at"`
	Started    time.Time      `json:"started_at,omitzero"`
	Finished   time.Time      `json:"finished_at,omitzero"`
	Result     *JobResult     `json:"result,omitempty"`
	graphEntry *GraphEntry
}

// SparsifyFunc runs one sparsification. cmd/serve injects the production
// implementation (built on the graphspar facade); tests inject counters
// or stubs.
type SparsifyFunc func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error)

// defaultRetainJobs bounds how many terminal jobs the queue remembers
// (the daemon would otherwise leak one sparsifier graph per job ever
// submitted).
const defaultRetainJobs = 512

// Queue runs jobs through a bounded worker pool: at most `workers`
// sparsifications run concurrently and at most `backlog` jobs wait;
// Submit fails fast with ErrQueueFull beyond that, so the HTTP layer can
// shed load with 503 instead of stacking goroutines. Terminal jobs are
// pruned oldest-first beyond the retain bound, so a long-running daemon
// holds a bounded number of results (plus whatever the cache pins).
type Queue struct {
	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // submission order, for listing and pruning
	seq     int
	retain  int
	pending chan *Job
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	closed  bool

	cache       *ResultCache
	cacheGate   func(hash string) bool // nil = always cache
	sparsify    SparsifyFunc
	sessionMgr  *sessions.Manager
	resume      ResumeFunc
	currentHash func(name string) (string, bool)

	workers   int
	inFlight  atomic.Int64
	metrics   *serverMetrics       // nil = uninstrumented
	admission *admissionController // nil = admit everything
}

// SetSessions attaches the runner that warm-starts live maintainers (what
// an incremental job with a warm start runs), the persistent-session
// manager, and a lookup for a graph's *current* content hash (required
// with a manager). With a manager, incremental jobs are served straight
// from a matching resident session (skipping the per-job dynamic.Resume
// reconcile) and cold incremental jobs install the maintainer they build,
// so the next PATCH/stream/job finds it warm; with mgr nil the maintainer
// answers the job and is dropped. The hash lookup guards against stale
// job snapshots: a job that sat queued across a PATCH must neither be
// served from (nor overwrite) the newer graph's session.
func (q *Queue) SetSessions(mgr *sessions.Manager, resume ResumeFunc, currentHash func(name string) (string, bool)) {
	q.mu.Lock()
	q.sessionMgr, q.resume, q.currentHash = mgr, resume, currentHash
	q.mu.Unlock()
}

// setMetrics attaches the server's instruments; nil leaves the queue
// uninstrumented (the observe methods no-op on a nil receiver).
func (q *Queue) setMetrics(m *serverMetrics) {
	q.mu.Lock()
	q.metrics = m
	q.mu.Unlock()
}

// setAdmission attaches admission control. The gate sits after the
// cache lookup and before the enqueue, so cache hits are always served
// but saturating backlogs shed with ErrSaturated instead of filling to
// the hard ErrQueueFull bound.
func (q *Queue) setAdmission(a *admissionController) {
	q.mu.Lock()
	q.admission = a
	q.mu.Unlock()
}

// SetCacheGate installs a predicate consulted before caching a finished
// result under a graph hash; returning false drops the write. The server
// wires it to Registry.HasHash so results computed against a graph that
// was PATCHed mid-flight (and whose old-hash cache lines were already
// invalidated) don't re-occupy cache slots under a hash no lookup will
// ever ask for again. A PATCH landing between the gate check and the Put
// can still leak one such entry; it is unreachable but harmless and ages
// out via LRU.
func (q *Queue) SetCacheGate(gate func(hash string) bool) {
	q.mu.Lock()
	q.cacheGate = gate
	q.mu.Unlock()
}

// NewQueue starts a queue with the given concurrency and backlog bounds.
// sparsify executes from-scratch jobs (and incremental jobs without a
// usable warm start); warm-started ones need SetSessions' ResumeFunc. A
// nil runner fails the corresponding jobs with ErrNoRunner. cache may be
// nil to disable memoization.
func NewQueue(workers, backlog int, cache *ResultCache, sparsify SparsifyFunc) *Queue {
	if workers <= 0 {
		workers = 1
	}
	if backlog < 0 {
		backlog = 0
	}
	if sparsify == nil {
		sparsify = func(context.Context, *graph.Graph, SparsifyParams) (*JobResult, error) {
			return nil, ErrNoRunner
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		jobs:     make(map[string]*Job),
		retain:   defaultRetainJobs,
		pending:  make(chan *Job, backlog),
		ctx:      ctx,
		cancel:   cancel,
		cache:    cache,
		sparsify: sparsify,
		workers:  workers,
	}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Submit registers a job for the graph entry and either serves it
// instantly from the result cache or enqueues it. The returned snapshot
// reflects the state at submission (already Done on a cache hit).
func (q *Queue) Submit(entry *GraphEntry, p SparsifyParams) (Job, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return Job{}, ErrQueueClosed
	}
	q.seq++
	job := &Job{
		ID:         "job-" + strconv.Itoa(q.seq),
		GraphName:  entry.Name,
		GraphHash:  entry.Hash,
		Params:     p,
		Status:     StatusQueued,
		Submitted:  time.Now().UTC(),
		graphEntry: entry,
	}

	// Memoized path: completed result for the same (graph, params) — or a
	// tighter-σ² result that still certifies this target — short-circuits
	// the queue entirely. Incremental jobs bypass the cache: their result
	// depends on which warm start is available, not only on the request.
	if q.cache != nil && !p.Incremental {
		if res, outcome := q.cache.Get(entry.Hash, p); outcome != CacheMiss {
			now := time.Now().UTC()
			job.Status = StatusDone
			job.CacheHit = outcome
			job.Result = res
			job.Started, job.Finished = now, now
			q.jobs[job.ID] = job
			q.order = append(q.order, job.ID)
			q.pruneLocked()
			snap := *job
			q.mu.Unlock()
			return snap, nil
		}
	}

	if !q.admission.admitJob(len(q.pending)) {
		q.mu.Unlock()
		return Job{}, ErrSaturated
	}
	select {
	case q.pending <- job:
	default:
		q.mu.Unlock()
		return Job{}, ErrQueueFull
	}
	q.jobs[job.ID] = job
	q.order = append(q.order, job.ID)
	snap := *job
	q.mu.Unlock()
	return snap, nil
}

// worker drains the pending channel until shutdown.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		select {
		case <-q.ctx.Done():
			// Drain what we can mark canceled; channel may still hold jobs.
			for {
				select {
				case job := <-q.pending:
					q.finish(job, nil, context.Canceled)
				default:
					return
				}
			}
		case job := <-q.pending:
			q.run(job)
		}
	}
}

// run executes one job, threading the queue's context into the runner so
// shutdown cancels queued and in-flight work.
func (q *Queue) run(job *Job) {
	q.mu.Lock()
	if q.ctx.Err() != nil {
		q.mu.Unlock()
		q.finish(job, nil, context.Canceled)
		return
	}
	job.Status = StatusRunning
	job.Started = time.Now().UTC()
	entry, p := job.graphEntry, job.Params
	q.mu.Unlock()
	q.inFlight.Add(1)
	defer q.inFlight.Add(-1)

	// Every job carries a phase trace: the spans the pipeline records
	// (partition, shard, stitch, embed, verify, settle, refilter) become
	// the job's Phases breakdown, and each span also lands in the
	// process-wide phase histograms.
	tr := obs.NewTrace()
	ctx := obs.WithTrace(q.ctx, tr)

	var (
		res *JobResult
		err error
	)
	if p.Incremental {
		res, err = q.runIncremental(ctx, entry, p)
		if res != nil {
			res.Phases = toPhaseMs(tr.Phases())
		}
		q.finish(job, res, err)
		return // never cached: result depends on the warm-start state
	}
	res, err = q.sparsify(ctx, entry.Graph, p)
	if res != nil {
		res.Phases = toPhaseMs(tr.Phases())
	}
	// Publish to the cache before the job becomes visible as done: a
	// client that polls it to "done" and resubmits the identical request
	// must hit, never race the Put.
	if err == nil && q.cache != nil {
		q.mu.Lock()
		gate := q.cacheGate
		q.mu.Unlock()
		if gate == nil || gate(entry.Hash) {
			q.cache.Put(entry.Hash, p, res)
		}
	}
	q.finish(job, res, err)
}

// runIncremental serves an incremental job the cheapest way available:
// a resident session that matches the graph's current content hash and
// the job's parameter fingerprint answers directly (no Resume, no
// reconcile — the maintained sparsifier is already certified for this
// exact graph); otherwise the warm-start sparsifier is resolved and the
// Resume runner builds a live maintainer that answers the job and, with
// sessions on, becomes the graph's session; and with no warm start at all
// the job falls back to a from-scratch run.
func (q *Queue) runIncremental(ctx context.Context, entry *GraphEntry, p SparsifyParams) (*JobResult, error) {
	q.mu.Lock()
	mgr, resume, currentHash := q.sessionMgr, q.resume, q.currentHash
	q.mu.Unlock()

	// The session layer only engages while the job's submission-time
	// graph snapshot is still the registry's current graph. If a PATCH
	// or stream batch landed while this job sat queued, probing Get with
	// the stale hash would tear down the newer (healthy) session, and
	// installing a maintainer built on the snapshot would replace it with
	// stale state — so a superseded job answers from a maintainer built on
	// its snapshot and leaves the resident session alone.
	if mgr != nil {
		if h, ok := currentHash(entry.Name); !ok || h != entry.Hash {
			mgr = nil
		}
	}

	// A pinned warm_job names an explicit lineage; honor it over the
	// resident session.
	if mgr != nil && p.WarmJob == "" {
		if sess := mgr.Get(entry.Name, entry.Hash, p.sessionKey()); sess != nil {
			res, err := sessionJobResult(ctx, sess)
			if err == nil {
				res.Incremental = true
				res.SessionHit = true
				return res, nil
			}
			// ErrSessionGone (evicted between Get and Do) or cancellation:
			// fall through to the cold path.
			if errors.Is(err, context.Canceled) {
				return nil, err
			}
		}
	}

	warm, src, err := q.warmSparsifier(entry, p.WarmJob)
	if err != nil {
		return nil, err
	}
	if warm == nil {
		res, err := q.sparsify(ctx, entry.Graph, p)
		if res != nil {
			res.Incremental = true // requested, but cold: WarmSource stays ""
		}
		return res, err
	}
	if resume == nil {
		return nil, ErrNoRunner
	}
	m, err := resume(ctx, entry.Graph, warm, p)
	if err != nil {
		return nil, err
	}
	res := maintainerJobResult(m)
	res.Incremental = true
	res.WarmSource = src
	if mgr == nil {
		return res, nil
	}
	// Keep the maintainer resident: the next PATCH, stream batch or
	// incremental job for this graph skips the reconcile we just paid.
	// Re-check freshness right before installing — the Resume took
	// real time, and replacing a session that advanced meanwhile
	// would swap warm state for stale state. (The residual race is
	// harmless: a stale install only ever misses on Get and is reaped
	// by the next cold PATCH's InvalidateStale or the TTL.)
	if h, ok := currentHash(entry.Name); ok && h == entry.Hash {
		mgr.Install(entry.Name, p.sessionKey(), m)
	}
	return res, nil
}

// sessionJobResult snapshots a resident session into a job result
// through its single-writer loop. The maintainer's Refilters/Rebuilds
// are lifetime counters across every batch the session ever served, not
// this job's work — the job itself did none — so the per-job fields stay
// zero and the cumulative numbers ride in the Session telemetry.
func sessionJobResult(ctx context.Context, sess *sessions.Session) (*JobResult, error) {
	var res *JobResult
	err := sess.Do(ctx, func(m sessions.Maintainer) error {
		res = maintainerJobResult(m)
		res.Rounds, res.Refilters, res.Rebuilds = 0, 0, 0
		return nil
	})
	return res, err
}

// maintainerJobResult summarizes a live maintainer: its independently
// re-verified per-batch certificate is the job's verified κ. For a maintainer freshly built by this job's Resume
// the counters are per-job; session-hit snapshots zero them (see
// sessionJobResult).
func maintainerJobResult(m sessions.Maintainer) *JobResult {
	sp := m.Sparsifier()
	st := m.Stats()
	sst := sessions.Snapshot(m)
	return &JobResult{
		EdgesKept:       sp.M(),
		EdgesInput:      m.Graph().M(),
		Density:         float64(sp.M()) / float64(sp.N()),
		Reduction:       float64(m.Graph().M()) / float64(sp.M()),
		SigmaSqAchieved: m.Cond(),
		TargetMet:       m.TargetMet(),
		Rounds:          st.Refilters,
		Connected:       sp.IsConnected(),
		VerifiedCond:    m.Cond(),
		Refilters:       st.Refilters,
		Rebuilds:        st.Rebuilds,
		Session:         &sst,
		Sparsifier:      sp,
	}
}

// warmSparsifier picks the warm-start source: the named job when WarmJob
// is set (an error if it is unknown or unfinished), otherwise the most
// recently finished job for the same graph name that still holds a
// sparsifier of the right vertex count. Returns nil when nothing usable
// exists.
func (q *Queue) warmSparsifier(entry *GraphEntry, warmJob string) (*graph.Graph, string, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if warmJob != "" {
		j, ok := q.jobs[warmJob]
		if !ok {
			return nil, "", fmt.Errorf("%w: warm_job %q", ErrJobNotFound, warmJob)
		}
		if j.GraphName != entry.Name {
			// A sparsifier of an unrelated graph is not a warm start even
			// when the vertex counts coincide; the name is the lineage that
			// survives PATCH re-hashing.
			return nil, "", fmt.Errorf("warm_job %q sparsified graph %q, not %q", warmJob, j.GraphName, entry.Name)
		}
		if j.Status != StatusDone || j.Result == nil || j.Result.Sparsifier == nil {
			return nil, "", fmt.Errorf("%w: warm_job %q is %s", ErrJobUnfinished, warmJob, j.Status)
		}
		if j.Result.Sparsifier.N() != entry.Graph.N() {
			return nil, "", fmt.Errorf("warm_job %q sparsifier has %d vertices, graph has %d",
				warmJob, j.Result.Sparsifier.N(), entry.Graph.N())
		}
		return j.Result.Sparsifier, warmJob, nil
	}
	for i := len(q.order) - 1; i >= 0; i-- {
		j := q.jobs[q.order[i]]
		if j.GraphName != entry.Name || j.Status != StatusDone {
			continue
		}
		if j.Result == nil || j.Result.Sparsifier == nil || j.Result.Sparsifier.N() != entry.Graph.N() {
			continue
		}
		return j.Result.Sparsifier, j.ID, nil
	}
	return nil, "", nil
}

// finish moves a job to its terminal state and prunes old terminal jobs
// beyond the retain bound.
func (q *Queue) finish(job *Job, res *JobResult, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	job.Finished = time.Now().UTC()
	switch {
	case errors.Is(err, context.Canceled):
		job.Status = StatusCanceled
		job.Error = "canceled by shutdown"
	case err != nil:
		job.Status = StatusFailed
		job.Error = err.Error()
	default:
		job.Status = StatusDone
		job.Result = res
	}
	// Jobs canceled while still queued never started; their wait and run
	// durations are meaningless and stay unobserved.
	wait, run := time.Duration(-1), time.Duration(-1)
	if !job.Started.IsZero() {
		wait = job.Started.Sub(job.Submitted)
		run = job.Finished.Sub(job.Started)
	}
	q.metrics.observeJobDone(job.Status, wait, run)
	q.pruneLocked()
}

// pruneLocked drops the oldest terminal jobs while more than retain jobs
// are tracked. Queued/running jobs are never dropped, so the map can
// transiently exceed the bound under a huge in-flight load.
func (q *Queue) pruneLocked() {
	if q.retain <= 0 || len(q.jobs) <= q.retain {
		return
	}
	kept := q.order[:0]
	excess := len(q.jobs) - q.retain
	for _, id := range q.order {
		j := q.jobs[id]
		terminal := j.Status == StatusDone || j.Status == StatusFailed || j.Status == StatusCanceled
		if excess > 0 && terminal {
			delete(q.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	q.order = kept
}

// Get snapshots a job by id.
func (q *Queue) Get(id string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	job, ok := q.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("%w: %q", ErrJobNotFound, id)
	}
	return *job, nil
}

// List snapshots all jobs in submission order.
func (q *Queue) List() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, *q.jobs[id])
	}
	return out
}

// Depth reports how many jobs are waiting in the backlog.
func (q *Queue) Depth() int { return len(q.pending) }

// InFlight reports how many jobs are currently executing on workers.
func (q *Queue) InFlight() int { return int(q.inFlight.Load()) }

// Workers reports the size of the worker pool.
func (q *Queue) Workers() int { return q.workers }

// SetRetain changes how many terminal jobs the queue remembers
// (0 = unbounded). Takes effect on the next job completion.
func (q *Queue) SetRetain(n int) {
	q.mu.Lock()
	q.retain = n
	q.mu.Unlock()
}

// Shutdown cancels the queue context (canceling queued jobs and
// signaling in-flight runners) and waits for workers to exit or the
// given context to expire.
func (q *Queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cancel()
	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
