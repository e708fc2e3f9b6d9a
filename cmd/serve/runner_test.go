package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"graphspar"
	"graphspar/internal/graph"
	"graphspar/internal/service"
)

// These tests cover the production runners — the only code that turns
// wire params into graphspar facade calls — both directly and through the
// full HTTP stack, the way cmd/serve wires them in production.

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graphspar.LoadGraph("grid:5x5:uniform", 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func canon(t *testing.T, p service.SparsifyParams) service.SparsifyParams {
	t.Helper()
	if err := p.Canon(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunSparsifyEndToEnd(t *testing.T) {
	// The production runner on a real (small) graph: target met, result
	// connected, independent verification within the target.
	g := testGraph(t)
	p := canon(t, service.SparsifyParams{SigmaSq: 50})
	res, err := runSparsify(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Connected {
		t.Error("sparsifier disconnected")
	}
	if !res.TargetMet || res.SigmaSqAchieved > 50 {
		t.Errorf("target: met=%v achieved=%v", res.TargetMet, res.SigmaSqAchieved)
	}
	if res.VerifiedCond <= 0 || res.VerifiedCond > 50 {
		t.Errorf("verified condition number %v outside (0, 50]", res.VerifiedCond)
	}
	if res.EdgesKept != res.Sparsifier.M() || res.EdgesInput != g.M() {
		t.Errorf("edge counts: %+v", res)
	}
	// Canceled context short-circuits.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runSparsify(ctx, g, p); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx: err = %v", err)
	}
}

func TestRunSparsifyShardedEndToEnd(t *testing.T) {
	g := testGraph(t)
	p := canon(t, service.SparsifyParams{SigmaSq: 50, Shards: 2, Workers: 2})
	res, err := runSparsify(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Connected {
		t.Error("sharded sparsifier disconnected")
	}
	if res.Shards != 2 {
		t.Errorf("shards = %d, want 2", res.Shards)
	}
	if res.VerifiedCond <= 0 {
		t.Errorf("missing verification: %+v", res)
	}
	if res.ShardSpeedup <= 0 {
		t.Errorf("missing speedup metadata: %+v", res)
	}
	if res.EdgesKept != res.Sparsifier.M() || res.EdgesInput != g.M() {
		t.Errorf("edge counts: %+v", res)
	}
	// Cancellation propagates into the engine.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runSparsify(ctx, g, p); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx: err = %v", err)
	}
}

func TestRunSparsifyMultilevelEndToEnd(t *testing.T) {
	// 32×32 ≈ 1k vertices: enough to clear the default coarsest-size
	// floor, so the wire request actually exercises the hierarchy.
	g, err := graphspar.LoadGraph("grid:32x32:unit", 1)
	if err != nil {
		t.Fatal(err)
	}
	p := canon(t, service.SparsifyParams{SigmaSq: 50, Mode: "multilevel"})
	res, err := runSparsify(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Multilevel || res.CoarsenDepth < 2 {
		t.Errorf("multilevel metadata: Multilevel=%v CoarsenDepth=%d", res.Multilevel, res.CoarsenDepth)
	}
	if !res.Connected {
		t.Error("multilevel sparsifier disconnected")
	}
	if !res.TargetMet || res.VerifiedCond <= 0 || res.VerifiedCond > 50 {
		t.Errorf("certificate: met=%v verified κ=%v", res.TargetMet, res.VerifiedCond)
	}
	if res.EdgesKept != res.Sparsifier.M() || res.EdgesInput != g.M() {
		t.Errorf("edge counts: %+v", res)
	}
	// Cancellation propagates into the hierarchy.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runSparsify(ctx, g, p); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx: err = %v", err)
	}
}

// ------------------------------------------------------- HTTP end to end

type submitReq struct {
	Graph string `json:"graph"`
	service.SparsifyParams
}

type graphInfo struct {
	Name string `json:"name"`
	Hash string `json:"hash"`
	N    int    `json:"n"`
	M    int    `json:"m"`
}

// newProductionServer spins up the HTTP stack with main's from-scratch
// runner and a call counter around it. No Maintain runner is wired, so
// sessions are off (the session e2e tests cover them on).
func newProductionServer(t *testing.T, cfg service.Config, calls *atomic.Int64) *httptest.Server {
	t.Helper()
	cfg.Sparsify = func(ctx context.Context, g *graph.Graph, p service.SparsifyParams) (*service.JobResult, error) {
		if calls != nil {
			calls.Add(1)
		}
		return runSparsify(ctx, g, p)
	}
	srv := service.NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Queue().Shutdown(ctx)
	})
	return ts
}

func doJSON(t *testing.T, method, url string, body any, out any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("unmarshal %q: %v", raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

// pollJob polls the job endpoint until the job is terminal.
func pollJob(t *testing.T, base, id string) service.Job {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var job service.Job
		code, raw := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil, &job)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: %d %s", id, code, raw)
		}
		switch job.Status {
		case service.StatusDone, service.StatusFailed, service.StatusCanceled:
			return job
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return service.Job{}
}

// TestServiceEndToEnd is the acceptance scenario: register a 40x40 grid,
// run two concurrent jobs at different σ² targets through the production
// runners, poll to completion, check each sparsifier is connected with
// verified condition number within its target, and confirm an identical
// resubmission is a cache hit that does not re-run the sparsifier.
func TestServiceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full sparsification run")
	}
	var calls atomic.Int64
	ts := newProductionServer(t, service.Config{Workers: 2, Backlog: 8, CacheSize: 16}, &calls)

	var info graphInfo
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs",
		map[string]any{"name": "grid40", "spec": "grid:40x40:uniform", "seed": 7}, &info)
	if code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, raw)
	}
	if info.N != 1600 || info.M != 2*40*39 || info.Hash == "" {
		t.Fatalf("graph info = %+v", info)
	}

	// Two concurrent jobs at different targets, tighter target last: a
	// cached looser-target result can never serve a tighter request, so
	// this stays cache-cold even if the first job finishes very quickly.
	targets := []float64{150, 60}
	jobs := make([]service.Job, len(targets))
	for i, s2 := range targets {
		var job service.Job
		code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
			submitReq{Graph: "grid40", SparsifyParams: service.SparsifyParams{SigmaSq: s2}}, &job)
		if code != http.StatusAccepted {
			t.Fatalf("submit σ²=%v: %d %s", s2, code, raw)
		}
		jobs[i] = job
	}

	for i, job := range jobs {
		done := pollJob(t, ts.URL, job.ID)
		if done.Status != service.StatusDone {
			t.Fatalf("job %s: %s (%s)", job.ID, done.Status, done.Error)
		}
		res := done.Result
		if res == nil {
			t.Fatalf("job %s: no result", job.ID)
		}
		if !res.Connected {
			t.Errorf("σ²=%v sparsifier disconnected", targets[i])
		}
		if res.VerifiedCond <= 0 || res.VerifiedCond > targets[i] {
			t.Errorf("σ²=%v: verified condition number %v outside (0, %v]",
				targets[i], res.VerifiedCond, targets[i])
		}
		if res.EdgesKept >= res.EdgesInput {
			t.Errorf("σ²=%v: no edge reduction (%d >= %d)", targets[i], res.EdgesKept, res.EdgesInput)
		}
	}
	ranBefore := calls.Load()
	if ranBefore != int64(len(targets)) {
		t.Fatalf("sparsify ran %d times, want %d", ranBefore, len(targets))
	}

	// Identical resubmission: served from cache, sparsifier NOT re-run.
	var cached service.Job
	code, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		submitReq{Graph: "grid40", SparsifyParams: service.SparsifyParams{SigmaSq: targets[0]}}, &cached)
	if code != http.StatusOK {
		t.Fatalf("cached submit: %d %s", code, raw)
	}
	if cached.Status != service.StatusDone || cached.CacheHit != service.CacheExact {
		t.Errorf("cached job = status %s cache %q, want done/exact", cached.Status, cached.CacheHit)
	}
	// A coarser target is also served from the σ²=60 certificate.
	var coarser service.Job
	code, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		submitReq{Graph: "grid40", SparsifyParams: service.SparsifyParams{SigmaSq: 5000}}, &coarser)
	if code != http.StatusOK {
		t.Fatalf("coarser submit: %d %s", code, raw)
	}
	if coarser.CacheHit != service.CacheCoarser {
		t.Errorf("coarser job cache = %q, want coarser", coarser.CacheHit)
	}
	if calls.Load() != ranBefore {
		t.Errorf("sparsify re-ran on cached submissions: %d calls", calls.Load())
	}

	// The result downloads round-trip as valid MatrixMarket.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + jobs[0].ID + "/sparsifier.mtx")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rt, err := graphspar.ReadMatrixMarket(resp.Body)
	if err != nil {
		t.Fatalf("sparsifier.mtx unreadable: %v", err)
	}
	if rt.N() != 1600 || !rt.IsConnected() {
		t.Errorf("downloaded sparsifier: n=%d connected=%v", rt.N(), rt.IsConnected())
	}
}
