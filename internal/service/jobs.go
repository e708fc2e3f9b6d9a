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
	// ErrNoRunner reports a server constructed without an execution
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

	// Incremental-job metadata. SessionHit reports that a session already
	// resident served the job; false means the job built the session it
	// was answered from (and left it resident) or, with Session nil, ran
	// from scratch because the session layer could not engage.
	// Refilters/Rebuilds count the maintainer's certificate-restoration
	// work and Session carries the session telemetry.
	Incremental bool            `json:"incremental,omitempty"`
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

// JobFunc executes one queued job against its submission-time graph
// snapshot. NewServer supplies Server.runJob, which is where a job's
// parameters pick between Config.Sparsify and the graph's session; the
// queue itself only schedules, caches and records.
type JobFunc func(ctx context.Context, entry *GraphEntry, p SparsifyParams) (*JobResult, error)

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

	cache     *ResultCache
	cacheGate func(hash string) bool // nil = always cache
	runJob    JobFunc

	workers   int
	inFlight  atomic.Int64
	metrics   *serverMetrics       // nil = uninstrumented
	admission *admissionController // nil = admit everything
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
// run executes every job. cache may be nil to disable memoization.
func NewQueue(workers, backlog int, cache *ResultCache, run JobFunc) *Queue {
	if workers <= 0 {
		workers = 1
	}
	if backlog < 0 {
		backlog = 0
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		jobs:    make(map[string]*Job),
		retain:  defaultRetainJobs,
		pending: make(chan *Job, backlog),
		ctx:     ctx,
		cancel:  cancel,
		cache:   cache,
		runJob:  run,
		workers: workers,
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
	// is the session's state, which depends on the batches it has served,
	// not only on the request.
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

	res, err := q.runJob(ctx, entry, p)
	if res != nil {
		res.Phases = toPhaseMs(tr.Phases())
	}
	// Publish to the cache before the job becomes visible as done: a
	// client that polls it to "done" and resubmits the identical request
	// must hit, never race the Put. An incremental result is the state of
	// the graph's session at that moment, not a function of the request,
	// so it is never cached.
	if err == nil && q.cache != nil && !p.Incremental {
		q.mu.Lock()
		gate := q.cacheGate
		q.mu.Unlock()
		if gate == nil || gate(entry.Hash) {
			q.cache.Put(entry.Hash, p, res)
		}
	}
	q.finish(job, res, err)
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
