package service

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"

	"graphspar/internal/dynamic"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/sessions"
)

// registerSpec registers a generator graph and returns its info.
func registerSpec(t *testing.T, base, name, spec string) graphInfo {
	t.Helper()
	var info graphInfo
	code, raw := doJSON(t, http.MethodPost, base+"/v1/graphs", registerRequest{Name: name, Spec: spec}, &info)
	if code != http.StatusCreated {
		t.Fatalf("register %s: %d %s", spec, code, raw)
	}
	return info
}

func TestPatchEdgesMutatesAndRehashes(t *testing.T) {
	ts := newTestServer(t, Config{}, nil)
	info := registerSpec(t, ts.URL, "g", "grid:6x6")

	var resp patchResponse
	code, raw := doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/g/edges", patchRequest{
		Updates: []dynamic.EventJSON{
			{Op: "insert", U: 0, V: 35, W: 1.5},
			{Op: "delete", U: 0, V: 1},
			{Op: "reweight", U: 1, V: 2, W: 4},
		},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("PATCH: %d %s", code, raw)
	}
	if resp.Applied != 3 {
		t.Fatalf("applied = %d, want 3", resp.Applied)
	}
	if resp.Hash == info.Hash || resp.PrevHash != info.Hash {
		t.Fatalf("hash must change: prev=%s new=%s orig=%s", resp.PrevHash, resp.Hash, info.Hash)
	}
	if resp.M != info.M { // one insert, one delete
		t.Fatalf("M = %d, want %d", resp.M, info.M)
	}

	// The stored graph reflects the mutation.
	var got graphInfo
	code, raw = doJSON(t, http.MethodGet, ts.URL+"/v1/graphs/g", nil, &got)
	if code != http.StatusOK {
		t.Fatalf("GET: %d %s", code, raw)
	}
	if got.Hash != resp.Hash {
		t.Fatalf("stored hash %s, want %s", got.Hash, resp.Hash)
	}
	if got.Source != "grid:6x6+patched" {
		t.Fatalf("source = %q, want patched marker", got.Source)
	}
}

// TestPatchBridgeDeleteRejected is the regression test for the
// connected-graph assumption: deleting a bridge must come back as a typed
// 422, and the stored graph must be unchanged.
func TestPatchBridgeDeleteRejected(t *testing.T) {
	ts := newTestServer(t, Config{}, nil)
	info := registerSpec(t, ts.URL, "bb", "barbell:5,3")

	// Barbell(5,3): left clique 0..4, bridge (4,5).
	code, raw := doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/bb/edges", patchRequest{
		Updates: []dynamic.EventJSON{{Op: "delete", U: 4, V: 5}},
	}, nil)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("bridge delete: %d %s, want 422", code, raw)
	}
	var got graphInfo
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/graphs/bb", nil, &got); code != http.StatusOK {
		t.Fatal("GET after failed PATCH")
	}
	if got.Hash != info.Hash || got.M != info.M {
		t.Fatal("failed PATCH must leave the graph unchanged")
	}
}

func TestPatchValidationStatusCodes(t *testing.T) {
	ts := newTestServer(t, Config{}, nil)
	registerSpec(t, ts.URL, "g", "grid:4x4")

	cases := []struct {
		name string
		req  any
		want int
	}{
		{"unknown graph", patchRequest{Updates: []dynamic.EventJSON{{Op: "insert", U: 0, V: 5, W: 1}}}, http.StatusNotFound},
		{"empty updates", patchRequest{}, http.StatusBadRequest},
		{"bad op", patchRequest{Updates: []dynamic.EventJSON{{Op: "upsert", U: 0, V: 5, W: 1}}}, http.StatusBadRequest},
		{"insert existing", patchRequest{Updates: []dynamic.EventJSON{{Op: "insert", U: 0, V: 1, W: 1}}}, http.StatusConflict},
		{"delete missing", patchRequest{Updates: []dynamic.EventJSON{{Op: "delete", U: 0, V: 15}}}, http.StatusUnprocessableEntity},
		{"self loop", patchRequest{Updates: []dynamic.EventJSON{{Op: "insert", U: 2, V: 2, W: 1}}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			url := ts.URL + "/v1/graphs/g/edges"
			if c.name == "unknown graph" {
				url = ts.URL + "/v1/graphs/nope/edges"
			}
			code, raw := doJSON(t, http.MethodPatch, url, c.req, nil)
			if code != c.want {
				t.Fatalf("%s: %d %s, want %d", c.name, code, raw, c.want)
			}
		})
	}
}

func TestCacheInvalidateGraph(t *testing.T) {
	cache := NewResultCache(8)
	p := SparsifyParams{SigmaSq: 50}
	if err := p.Canon(); err != nil {
		t.Fatal(err)
	}
	res := &JobResult{SigmaSqAchieved: 40}
	cache.Put("hashA", p, res)
	p2 := p
	p2.SigmaSq = 100
	cache.Put("hashA", p2, res)
	cache.Put("hashB", p, res)
	if cache.Len() != 3 {
		t.Fatalf("len = %d, want 3", cache.Len())
	}
	if removed := cache.InvalidateGraph("hashA"); removed != 2 {
		t.Fatalf("removed = %d, want 2", removed)
	}
	if cache.Len() != 1 {
		t.Fatalf("len = %d, want 1 (hashB survives)", cache.Len())
	}
	if _, outcome := cache.Get("hashB", p); outcome != CacheExact {
		t.Fatalf("hashB lookup = %v, want exact hit", outcome)
	}
	if _, outcome := cache.Get("hashA", p); outcome != CacheMiss {
		t.Fatalf("hashA lookup = %v, want miss", outcome)
	}
}

// TestIncrementalDispatchesToRunner pins the queue's routing contract
// with stubs: an incremental job with a usable warm start must invoke the
// injected ResumeFunc (passing the prior sparsifier) and answer from the
// maintainer it returns, never the from-scratch runner, and must bypass
// the result cache — with no session manager attached, as here, the
// maintainer is simply dropped. (The production warm-start flow end to end
// lives in cmd/serve.)
func TestIncrementalDispatchesToRunner(t *testing.T) {
	g, err := gen.Grid2D(4, 4, gen.UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	var fullCalls, incCalls atomic.Int64
	var warmSeen *graph.Graph
	q := NewQueue(1, 8, NewResultCache(8),
		func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
			fullCalls.Add(1)
			return &JobResult{TargetMet: true, Sparsifier: g}, nil
		})
	q.SetSessions(nil, func(ctx context.Context, g, warm *graph.Graph, p SparsifyParams) (sessions.Maintainer, error) {
		incCalls.Add(1)
		warmSeen = warm
		return &stubMaintainer{g: g}, nil
	}, nil)
	defer func() { _ = q.Shutdown(context.Background()) }()
	entry := &GraphEntry{Name: "g", Hash: HashGraph(g), Graph: g, N: g.N(), M: g.M()}

	p := testParams(50)
	seed, err := q.Submit(entry, p)
	if err != nil {
		t.Fatal(err)
	}
	if done := waitJob(t, q, seed.ID); done.Status != StatusDone {
		t.Fatalf("seed job: %+v", done)
	}

	pInc := SparsifyParams{SigmaSq: 50, Incremental: true}
	if err := pInc.Canon(); err != nil {
		t.Fatal(err)
	}
	job, err := q.Submit(entry, pInc)
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, q, job.ID)
	if done.Status != StatusDone || !done.Result.Incremental || done.Result.WarmSource != seed.ID {
		t.Fatalf("incremental job = %+v, want warm start from %s", done, seed.ID)
	}
	if fullCalls.Load() != 1 || incCalls.Load() != 1 {
		t.Fatalf("runner calls: full=%d inc=%d, want 1/1", fullCalls.Load(), incCalls.Load())
	}
	if warmSeen == nil || warmSeen != g {
		t.Fatal("Resume runner did not receive the prior sparsifier")
	}
	if r := done.Result; r.EdgesKept != g.M() || r.VerifiedCond != 2 || !r.TargetMet || r.Session == nil {
		t.Fatalf("result = %+v, want the stub maintainer's summary", r)
	}
}

// TestIncrementalWithoutWarmStartFallsBack submits incremental as the very
// first job: no prior sparsifier exists, so the queue must fall back to
// the plain runner and still succeed.
func TestIncrementalWithoutWarmStartFallsBack(t *testing.T) {
	q := newTestQueue(1, 8, nil, func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
		return &JobResult{EdgesKept: g.M(), TargetMet: true}, nil
	})
	defer func() { _ = q.Shutdown(context.Background()) }()
	g, err := gen.Grid2D(4, 4, gen.UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	entry := &GraphEntry{Name: "g", Hash: HashGraph(g), Graph: g, N: g.N(), M: g.M()}
	p := SparsifyParams{SigmaSq: 50, Incremental: true}
	if err := p.Canon(); err != nil {
		t.Fatal(err)
	}
	job, err := q.Submit(entry, p)
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, q, job.ID)
	if done.Status != StatusDone {
		t.Fatalf("job: %+v", done)
	}
	if !done.Result.Incremental || done.Result.WarmSource != "" {
		t.Fatalf("cold incremental result = %+v, want Incremental with empty WarmSource", done.Result)
	}
}

// TestIncrementalWarmJobValidation rejects unknown or unfinished warm_job
// references.
func TestIncrementalWarmJobValidation(t *testing.T) {
	q := newTestQueue(1, 8, nil, func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
		return &JobResult{TargetMet: true}, nil
	})
	defer func() { _ = q.Shutdown(context.Background()) }()
	g, err := gen.Grid2D(4, 4, gen.UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	entry := &GraphEntry{Name: "g", Hash: HashGraph(g), Graph: g, N: g.N(), M: g.M()}
	p := SparsifyParams{SigmaSq: 50, Incremental: true, WarmJob: "job-999"}
	if err := p.Canon(); err != nil {
		t.Fatal(err)
	}
	job, err := q.Submit(entry, p)
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, q, job.ID)
	if done.Status != StatusFailed {
		t.Fatalf("job with bogus warm_job: %+v, want failed", done)
	}
}

// TestRegistryUpdateCAS covers the compare-and-set semantics concurrent
// PATCHes rely on: an Update against a stale hash must fail with
// ErrGraphChanged instead of clobbering the winner's graph.
func TestRegistryUpdateCAS(t *testing.T) {
	r := NewRegistry()
	g1, err := gen.Grid2D(3, 3, gen.UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := r.Register("g", "spec", g1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := gen.Grid2D(3, 3, gen.UniformWeights, 2)
	if err != nil {
		t.Fatal(err)
	}
	updated, err := r.Update("g", entry.Hash, g2)
	if err != nil {
		t.Fatal(err)
	}
	// Second writer still holding the original hash must lose.
	g3, err := gen.Grid2D(3, 3, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Update("g", entry.Hash, g3); !errors.Is(err, ErrGraphChanged) {
		t.Fatalf("stale update: err = %v, want ErrGraphChanged", err)
	}
	// And wins when it re-reads the current hash.
	if _, err := r.Update("g", updated.Hash, g3); err != nil {
		t.Fatalf("fresh update: %v", err)
	}
}

// TestIncrementalWarmJobWrongGraph rejects a warm_job that sparsified a
// different graph, even with a matching vertex count.
func TestIncrementalWarmJobWrongGraph(t *testing.T) {
	q := newTestQueue(1, 8, nil, func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
		return &JobResult{TargetMet: true, Sparsifier: g}, nil
	})
	defer func() { _ = q.Shutdown(context.Background()) }()
	g, err := gen.Grid2D(4, 4, gen.UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	entryA := &GraphEntry{Name: "a", Hash: HashGraph(g), Graph: g, N: g.N(), M: g.M()}
	entryB := &GraphEntry{Name: "b", Hash: HashGraph(g) + "x", Graph: g, N: g.N(), M: g.M()}
	p := SparsifyParams{SigmaSq: 50}
	if err := p.Canon(); err != nil {
		t.Fatal(err)
	}
	jobA, err := q.Submit(entryA, p)
	if err != nil {
		t.Fatal(err)
	}
	if done := waitJob(t, q, jobA.ID); done.Status != StatusDone {
		t.Fatalf("seed job: %+v", done)
	}
	pInc := SparsifyParams{SigmaSq: 50, Incremental: true, WarmJob: jobA.ID}
	if err := pInc.Canon(); err != nil {
		t.Fatal(err)
	}
	jobB, err := q.Submit(entryB, pInc)
	if err != nil {
		t.Fatal(err)
	}
	if done := waitJob(t, q, jobB.ID); done.Status != StatusFailed {
		t.Fatalf("cross-graph warm_job: %+v, want failed", done)
	}
}

func TestCanonRejectsWarmJobWithoutIncremental(t *testing.T) {
	p := SparsifyParams{SigmaSq: 50, WarmJob: "job-1"}
	if err := p.Canon(); err == nil {
		t.Fatal("warm_job without incremental must fail Canon")
	}
}
