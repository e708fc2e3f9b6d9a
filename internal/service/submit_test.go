package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/obs"
)

// submitServer starts a one-worker server on its own metrics registry
// around run and registers graph "g". The returned channel receives one
// value each time run is entered; its buffer holds more than any test
// submits, so a runner never blocks on a test that does not read it.
func submitServer(t *testing.T, run SparsifyFunc) (*Server, *httptest.Server, chan struct{}) {
	t.Helper()
	started := make(chan struct{}, 8)
	cfg := Config{Workers: 1, Backlog: 4, Metrics: obs.NewRegistry(),
		Sparsify: func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
			started <- struct{}{}
			return run(ctx, g, p)
		}}
	srv, ts := startTestServer(t, cfg, nil)
	registerSpec(t, ts.URL, "g", "grid:4x4")
	return srv, ts, started
}

// submitTimed submits a job on "g" and returns the reply and its round
// trip time.
func submitTimed(t *testing.T, base string, sigma2 float64) (int, Job, time.Duration) {
	t.Helper()
	var job Job
	t0 := time.Now()
	code, raw := doJSON(t, http.MethodPost, base+"/v1/jobs",
		submitRequest{Graph: "g", SparsifyParams: SparsifyParams{SigmaSq: sigma2}}, &job)
	elapsed := time.Since(t0)
	if code >= 300 {
		t.Fatalf("submit σ²=%g: %d %s", sigma2, code, raw)
	}
	return code, job, elapsed
}

// wantSubmits checks graphspar_job_submits_total on the server's scrape.
func wantSubmits(t *testing.T, base string, cache, answered, pending int) {
	t.Helper()
	body := scrape(t, base)
	for outcome, n := range map[string]int{"cache": cache, "answered": answered, "pending": pending} {
		line := fmt.Sprintf(`graphspar_job_submits_total{outcome=%q} %d`, outcome, n)
		if n == 0 {
			if strings.Contains(body, fmt.Sprintf(`{outcome=%q}`, outcome)) {
				t.Errorf("scrape has a %s submit, want none:\n%s", outcome, grepLines(body, "job_submits"))
			}
		} else if !strings.Contains(body, line) {
			t.Errorf("scrape missing %q:\n%s", line, grepLines(body, "job_submits"))
		}
	}
}

func instantRun(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
	return &JobResult{SigmaSqAchieved: p.SigmaSq, VerifiedCond: p.SigmaSq, TargetMet: true, Sparsifier: g}, nil
}

// TestSubmitAnswersQuickJob: a job a free worker finishes inside the wait
// comes back from its submit as 202 with status done and its result, so
// the client has nothing to poll; resubmitting it is the cache's 200.
func TestSubmitAnswersQuickJob(t *testing.T) {
	_, ts, _ := submitServer(t, instantRun)

	code, job, _ := submitTimed(t, ts.URL, 60)
	if code != http.StatusAccepted || job.Status != StatusDone || job.Result == nil || !job.Result.TargetMet {
		t.Fatalf("quick job: %d %+v, want 202 done with its result", code, job)
	}
	code, hit, _ := submitTimed(t, ts.URL, 60)
	if code != http.StatusOK || hit.Status != StatusDone || hit.CacheHit != CacheExact || hit.Result == nil {
		t.Fatalf("resubmit: %d %+v, want 200 done from the cache", code, hit)
	}
	wantSubmits(t, ts.URL, 1, 1, 0)
}

// TestSubmitFailedJobAnswered: a job that fails inside the wait comes back
// as 202 failed with its error.
func TestSubmitFailedJobAnswered(t *testing.T) {
	_, ts, _ := submitServer(t, func(context.Context, *graph.Graph, SparsifyParams) (*JobResult, error) {
		return nil, errors.New("boom")
	})
	code, job, _ := submitTimed(t, ts.URL, 60)
	if code != http.StatusAccepted || job.Status != StatusFailed || job.Error != "boom" {
		t.Fatalf("failing job: %d %+v, want 202 failed with its error", code, job)
	}
	wantSubmits(t, ts.URL, 0, 1, 0)
}

// TestSubmitSlowJobAnsweredRunning: a job still running when the wait
// expires is answered 202 running no sooner than the wait, and one
// submitted behind it into the busy pool is answered 202 queued at once.
func TestSubmitSlowJobAnsweredRunning(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv, ts, _ := submitServer(t, func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return instantRun(ctx, g, p)
	})

	code, slow, elapsed := submitTimed(t, ts.URL, 60)
	if code != http.StatusAccepted || slow.Status != StatusRunning {
		t.Fatalf("slow job: %d %+v, want 202 running", code, slow)
	}
	if elapsed < submitWait {
		t.Errorf("slow job answered after %v, before the %v wait expired", elapsed, submitWait)
	}
	code, queued, elapsed := submitTimed(t, ts.URL, 70)
	if code != http.StatusAccepted || queued.Status != StatusQueued {
		t.Fatalf("job behind a busy pool: %d %+v, want 202 queued", code, queued)
	}
	if elapsed >= submitWait {
		t.Errorf("job behind a busy pool answered after %v; it must not wait", elapsed)
	}
	for id, want := range map[string]bool{slow.ID: true, queued.ID: false} {
		if j, err := srv.queue.Get(id); err != nil || j.startsNow != want {
			t.Errorf("%s: startsNow = %v (%v), want %v", id, j.startsNow, err, want)
		}
	}
	wantSubmits(t, ts.URL, 0, 0, 2)
}

// notifyingServer serves srv's handler and reports on returned each time
// a request's handler has returned (buffered like submitServer's started).
func notifyingServer(t *testing.T, srv *Server) (*httptest.Server, chan struct{}) {
	t.Helper()
	returned := make(chan struct{}, 8)
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		returned <- struct{}{}
	}))
	t.Cleanup(ts.Close)
	return ts, returned
}

// TestSubmitWaitEndsOnDisconnect: a client that hangs up mid-wait frees
// its handler at once instead of holding it for the rest of the wait.
func TestSubmitWaitEndsOnDisconnect(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv, _, started := submitServer(t, func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return instantRun(ctx, g, p)
	})
	ts, returned := notifyingServer(t, srv)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"graph":"g","sigma2":60}`))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-started
		cancel()
	}()
	t0 := time.Now()
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("submit answered %d despite the hang-up", resp.StatusCode)
	}
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("handler never returned after the client hung up")
	}
	if elapsed := time.Since(t0); elapsed >= submitWait {
		t.Errorf("handler returned %v after submit, not before the %v wait expired", elapsed, submitWait)
	}
}

// TestSubmitWaitEndsOnShutdown: Queue.Shutdown ends a submit's wait at
// once, even while the job's runner ignores cancellation.
func TestSubmitWaitEndsOnShutdown(t *testing.T) {
	release := make(chan struct{})
	srv, _, started := submitServer(t, func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
		<-release
		return instantRun(ctx, g, p)
	})
	ts, returned := notifyingServer(t, srv)

	shutdown := make(chan error, 1)
	began := make(chan time.Time, 1)
	go func() {
		<-started
		began <- time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdown <- srv.Queue().Shutdown(ctx)
	}()
	var job Job
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", map[string]any{"graph": "g", "sigma2": 60}, &job)
	<-returned
	elapsed := time.Since(<-began)
	close(release) // only now may the runner, and so Shutdown, finish
	if err := <-shutdown; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code != http.StatusAccepted || job.Status != StatusRunning {
		t.Fatalf("submit during shutdown: %d %s, want 202 running", code, raw)
	}
	if elapsed >= submitWait {
		t.Errorf("handler returned %v after Shutdown began, not before the %v wait expired", elapsed, submitWait)
	}
}

// TestQueueAwait pins Await's exits with a wait long enough that only
// the event under test can end it: the job finishing, the caller's
// context ending, the queue shutting down; a pruned job returns the
// snapshot Await was given.
func TestQueueAwait(t *testing.T) {
	const forever = time.Hour
	entry := testEntry(t)
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	q := newTestQueue(1, 4, nil, func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
		if p.SigmaSq == 99 { // blocks the worker, deaf to cancellation
			<-release
		}
		return &JobResult{SigmaSqAchieved: p.SigmaSq, Sparsifier: g}, nil
	})
	defer q.Shutdown(context.Background())

	// Done: the wait ends when the job does.
	a, err := q.Submit(entry, testParams(10))
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Await(context.Background(), a, forever); got.Status != StatusDone || got.Result == nil {
		t.Fatalf("Await on a quick job = %+v, want done", got)
	}

	// Pruned: with one job retained, finishing b drops a.
	q.mu.Lock()
	q.retain = 1
	q.mu.Unlock()
	b, err := q.Submit(entry, testParams(20))
	if err != nil {
		t.Fatal(err)
	}
	q.Await(context.Background(), b, forever)
	if _, err := q.Get(a.ID); !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("job %s not pruned: %v", a.ID, err)
	}
	if got := q.Await(context.Background(), a, forever); got.Status != StatusQueued || got.ID != a.ID {
		t.Fatalf("Await on a pruned job = %+v, want the snapshot it was given", got)
	}

	// Context: the caller going away ends the wait on a running job.
	blocker, err := q.Submit(entry, testParams(99))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if got := q.Await(ctx, blocker, forever); got.Status.terminal() {
		t.Fatalf("Await after cancel = %+v, want the job still live", got)
	}

	// Shutdown: the queue closing ends the wait while the runner ignores it.
	awaited := make(chan Job)
	go func() { awaited <- q.Await(context.Background(), blocker, forever) }()
	shutdown := make(chan error, 1)
	go func() { shutdown <- q.Shutdown(context.Background()) }()
	if got := <-awaited; got.Status.terminal() {
		t.Fatalf("Await across Shutdown = %+v, want the job still running", got)
	}
	unblock()
	if err := <-shutdown; err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSubmitJob is the HTTP handler layer's figure for a quick job:
// a loopback httptest server with an instant runner and no result cache,
// driven like cmd/loadgen drives the daemon (submit, then poll every 5 ms
// while the job is queued or running). ns/op is submit to terminal
// status; requests/job counts the round trips that took, 1 when the
// submit reply already carries the finished job.
func BenchmarkSubmitJob(b *testing.B) {
	srv := NewServer(Config{Workers: 2, CacheSize: -1, Metrics: obs.NewRegistry(), Sparsify: instantRun})
	defer srv.Queue().Shutdown(context.Background())
	g, err := gen.Grid2D(8, 8, gen.UniformWeights, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.Registry().Register("g", "test", g); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := ts.Client()
	do := func(method, path, body string, job *Job) {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp, err := cl.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			b.Fatalf("%s %s: %d", method, path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(job); err != nil {
			b.Fatal(err)
		}
	}
	requests := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var job Job
		do(http.MethodPost, "/v1/jobs", `{"graph":"g","sigma2":60}`, &job)
		requests++
		for !job.Status.terminal() {
			time.Sleep(5 * time.Millisecond)
			do(http.MethodGet, "/v1/jobs/"+job.ID, "", &job)
			requests++
		}
		if job.Status != StatusDone {
			b.Fatalf("job %s: %s %s", job.ID, job.Status, job.Error)
		}
	}
	b.ReportMetric(float64(requests)/float64(b.N), "requests/job")
}
