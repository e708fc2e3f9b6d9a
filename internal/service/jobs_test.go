package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphspar/internal/graph"
	"graphspar/internal/testkit/fixture"
)

func testEntry(t *testing.T) *GraphEntry {
	t.Helper()
	r := NewRegistry()
	e, err := r.Register("g", "test", testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, q *Queue, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job, err := q.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		switch job.Status {
		case StatusDone, StatusFailed, StatusCanceled:
			return job
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Job{}
}

func TestQueueRunsJobs(t *testing.T) {
	entry := testEntry(t)
	var calls atomic.Int64
	q := newTestQueue(2, 8, nil, func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
		calls.Add(1)
		return &JobResult{SigmaSqAchieved: p.SigmaSq / 2, VerifiedCond: p.SigmaSq / 2, Sparsifier: g}, nil
	})
	defer q.Shutdown(context.Background())

	job, err := q.Submit(entry, testParams(100))
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != StatusQueued {
		t.Errorf("submit status = %s", job.Status)
	}
	done := waitJob(t, q, job.ID)
	if done.Result == nil || done.Result.SigmaSqAchieved != 50 {
		t.Errorf("result = %+v", done.Result)
	}
	if done.Started.IsZero() || done.Finished.IsZero() {
		t.Error("timestamps not set")
	}
	if calls.Load() != 1 {
		t.Errorf("runner calls = %d", calls.Load())
	}
}

func TestQueueBoundedConcurrencyAndBacklog(t *testing.T) {
	entry := testEntry(t)
	const workers = 2
	var running, peak atomic.Int64
	block := make(chan struct{})
	q := newTestQueue(workers, 1, nil, func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
		cur := running.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		<-block
		running.Add(-1)
		return &JobResult{}, nil
	})
	defer q.Shutdown(context.Background())

	// Occupy both workers, waiting for each pickup so the backlog channel
	// is empty before the next submit (Submit fails fast on a full
	// channel, so racing it against worker pickup would flake).
	var ids []string
	for i := 0; i < workers; i++ {
		job, err := q.Submit(entry, testParams(float64(10+i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, job.ID)
		deadline := time.Now().Add(5 * time.Second)
		for running.Load() != int64(i+1) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if running.Load() != int64(i+1) {
			t.Fatalf("running = %d, want %d", running.Load(), i+1)
		}
	}
	// Fill the single backlog slot.
	job, err := q.Submit(entry, testParams(99))
	if err != nil {
		t.Fatalf("backlog submit: %v", err)
	}
	ids = append(ids, job.ID)

	// Now workers and backlog are saturated: the next submit must shed.
	if _, err := q.Submit(entry, testParams(100)); !errors.Is(err, ErrQueueFull) {
		t.Errorf("saturated submit: err = %v, want ErrQueueFull", err)
	}

	close(block)
	for _, id := range ids {
		if job := waitJob(t, q, id); job.Status != StatusDone {
			t.Errorf("job %s = %s", id, job.Status)
		}
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds worker bound %d", p, workers)
	}
}

func TestQueueCacheShortCircuit(t *testing.T) {
	entry := testEntry(t)
	cache := NewResultCache(4)
	var calls atomic.Int64
	q := newTestQueue(1, 4, cache, func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
		calls.Add(1)
		return &JobResult{SigmaSqAchieved: p.SigmaSq * 0.8, VerifiedCond: p.SigmaSq * 0.8, Sparsifier: g}, nil
	})
	defer q.Shutdown(context.Background())

	first, err := q.Submit(entry, testParams(100))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, q, first.ID)

	// Identical resubmission: served instantly, runner not called again.
	second, err := q.Submit(entry, testParams(100))
	if err != nil {
		t.Fatal(err)
	}
	if second.Status != StatusDone || second.CacheHit != CacheExact {
		t.Errorf("resubmit = status %s cache %q, want done/exact", second.Status, second.CacheHit)
	}
	// Coarser target: also served from cache.
	third, err := q.Submit(entry, testParams(500))
	if err != nil {
		t.Fatal(err)
	}
	if third.Status != StatusDone || third.CacheHit != CacheCoarser {
		t.Errorf("coarser submit = status %s cache %q, want done/coarser", third.Status, third.CacheHit)
	}
	if calls.Load() != 1 {
		t.Errorf("runner calls = %d, want 1", calls.Load())
	}
}

// TestQueueCachesBeforeDone pins the publish order: a job must not become
// visible as done until its result is in the cache, so a client that
// polls to done and resubmits the identical request always hits. The
// cache gate (consulted right before the Put) is held open to observe the
// job's status at exactly that point.
func TestQueueCachesBeforeDone(t *testing.T) {
	entry := testEntry(t)
	q := newTestQueue(1, 4, NewResultCache(4), func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
		return &JobResult{SigmaSqAchieved: p.SigmaSq * 0.8, VerifiedCond: p.SigmaSq * 0.8, Sparsifier: g}, nil
	})
	defer q.Shutdown(context.Background())
	entered, release := make(chan struct{}), make(chan struct{})
	q.SetCacheGate(func(string) bool {
		close(entered)
		<-release
		return true
	})

	first, err := q.Submit(entry, testParams(100))
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	if job, err := q.Get(first.ID); err != nil || job.Status == StatusDone {
		t.Errorf("job is %s (err %v) before its result reached the cache", job.Status, err)
	}
	close(release)
	waitJob(t, q, first.ID)
	second, err := q.Submit(entry, testParams(100))
	if err != nil {
		t.Fatal(err)
	}
	if second.Status != StatusDone || second.CacheHit != CacheExact {
		t.Errorf("resubmit after done = status %s cache %q, want done/exact", second.Status, second.CacheHit)
	}
}

func TestQueueFailedJob(t *testing.T) {
	entry := testEntry(t)
	boom := errors.New("boom")
	q := newTestQueue(1, 4, nil, func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
		return nil, boom
	})
	defer q.Shutdown(context.Background())

	job, err := q.Submit(entry, testParams(100))
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, q, job.ID)
	if done.Status != StatusFailed || done.Error != "boom" {
		t.Errorf("job = %s %q", done.Status, done.Error)
	}
}

func TestQueueShutdownCancelsPending(t *testing.T) {
	entry := testEntry(t)
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	q := newTestQueue(1, 8, nil, func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
		once.Do(func() { close(started) })
		select {
		case <-release:
			return &JobResult{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})

	blocker, err := q.Submit(entry, testParams(10))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := q.Submit(entry, testParams(20))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := q.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(release)

	if job, _ := q.Get(blocker.ID); job.Status != StatusCanceled {
		t.Errorf("in-flight job = %s, want canceled (ctx threaded into runner)", job.Status)
	}
	if job, _ := q.Get(queued.ID); job.Status != StatusCanceled {
		t.Errorf("queued job = %s, want canceled", job.Status)
	}
	// Submits after shutdown are refused.
	if _, err := q.Submit(entry, testParams(30)); !errors.Is(err, ErrQueueClosed) {
		t.Errorf("post-shutdown submit: err = %v, want ErrQueueClosed", err)
	}
}

func TestQueueRetentionPrunesTerminalJobs(t *testing.T) {
	entry := testEntry(t)
	q := newTestQueue(1, 8, nil, func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
		return &JobResult{}, nil
	})
	defer q.Shutdown(context.Background())
	q.retain = 3

	var last string
	for i := 0; i < 10; i++ {
		job, err := q.Submit(entry, testParams(float64(10+i)))
		if err != nil {
			t.Fatal(err)
		}
		last = job.ID
		waitJob(t, q, job.ID)
	}
	if n := len(q.List()); n != 3 {
		t.Errorf("retained %d jobs, want 3", n)
	}
	// The most recent job survives pruning; the oldest are gone.
	if _, err := q.Get(last); err != nil {
		t.Errorf("latest job pruned: %v", err)
	}
	if _, err := q.Get("job-1"); !errors.Is(err, ErrJobNotFound) {
		t.Errorf("oldest job kept: err = %v", err)
	}
}

// TestQueueWithoutRunnerFailsJobs pins the injection contract: a server
// constructed without runners must fail jobs with ErrNoRunner instead of
// panicking (the production runners live in cmd/serve, on top of the
// graphspar facade).
func TestQueueWithoutRunnerFailsJobs(t *testing.T) {
	entry := testEntry(t)
	q := NewServer(Config{}).Queue()
	defer q.Shutdown(context.Background())
	job, err := q.Submit(entry, testParams(50))
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, q, job.ID)
	if done.Status != StatusFailed || done.Error != ErrNoRunner.Error() {
		t.Fatalf("job = %s %q, want failed with ErrNoRunner", done.Status, done.Error)
	}
}

func TestQueueShardedAndSingleShotDoNotAlias(t *testing.T) {
	entry := testEntry(t)
	cache := NewResultCache(16)
	var calls atomic.Int64
	q := newTestQueue(1, 8, cache, func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
		calls.Add(1)
		return &JobResult{SigmaSqAchieved: 10, VerifiedCond: 10, TargetMet: true, Sparsifier: g}, nil
	})
	defer q.Shutdown(context.Background())

	single := testParams(100)
	sharded := SparsifyParams{SigmaSq: 100, Mode: "sharded"}
	if err := sharded.Canon(); err != nil {
		t.Fatal(err)
	}
	j1, err := q.Submit(entry, single)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, q, j1.ID)
	// The sharded request must MISS despite the identical σ² and seed.
	j2, err := q.Submit(entry, sharded)
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, q, j2.ID)
	if done.CacheHit != "" {
		t.Errorf("sharded request served from single-shot cache: %+v", done)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("sparsify calls = %d, want 2", got)
	}
}

// newTestQueue builds a queue whose every job runs the stub on the job's
// graph snapshot (what Server.runJob does for a non-incremental job).
func newTestQueue(workers, backlog int, cache *ResultCache, sparsify SparsifyFunc) *Queue {
	return NewQueue(workers, backlog, cache, func(ctx context.Context, e *GraphEntry, p SparsifyParams) (*JobResult, error) {
		return sparsify(ctx, e.Graph, p)
	})
}

// TestQueueTerminalJobsReleaseInput pins what a retained job holds: its
// input snapshot only while queued or running. Every terminal path —
// done, failed, canceled by Shutdown (in flight and still queued) and
// born done from the cache — leaves graphEntry nil.
func TestQueueTerminalJobsReleaseInput(t *testing.T) {
	entry := testEntry(t)
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	q := newTestQueue(1, 8, NewResultCache(4), func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
		switch p.SigmaSq {
		case 10: // blocks the only worker until shutdown
			close(started)
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		case 20:
			return nil, errors.New("boom")
		}
		return &JobResult{SigmaSqAchieved: p.SigmaSq, VerifiedCond: p.SigmaSq, TargetMet: true, Sparsifier: fixture.Graph(g.N(), nil)}, nil
	})
	submit := func(sigma float64) Job {
		t.Helper()
		job, err := q.Submit(entry, testParams(sigma))
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	held := func(id string) bool {
		t.Helper()
		job, err := q.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		return job.graphEntry != nil
	}

	done := submit(100)
	if j := waitJob(t, q, done.ID); j.Status != StatusDone || held(done.ID) {
		t.Errorf("done job: status %s, holds its input %v", j.Status, held(done.ID))
	}
	hit := submit(100)
	if hit.Status != StatusDone || hit.CacheHit != CacheExact || hit.graphEntry != nil || held(hit.ID) {
		t.Errorf("cache hit: status %s cache %q, holds its input %v", hit.Status, hit.CacheHit, held(hit.ID))
	}
	failed := submit(20)
	if j := waitJob(t, q, failed.ID); j.Status != StatusFailed || held(failed.ID) {
		t.Errorf("failed job: status %s, holds its input %v", j.Status, held(failed.ID))
	}

	running := submit(10)
	<-started
	queued := submit(30)
	if !held(running.ID) || !held(queued.ID) {
		t.Fatal("a running or queued job must hold the snapshot it runs on")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := q.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if j, _ := q.Get(id); j.Status != StatusCanceled || held(id) {
			t.Errorf("%s after shutdown: status %s, holds its input %v", id, j.Status, held(id))
		}
	}
}
