package service

import (
	"errors"
	"net/http"
	"sync/atomic"
	"testing"

	"graphspar/internal/dynamic"
	"graphspar/internal/gen"
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

// TestIncrementalDispatchesToRunner pins the first of an incremental
// job's two outcomes with stubs: sessions on and the job's snapshot
// current, so the job is answered by the graph's session — built by the
// Maintain runner, never the from-scratch one — and bypasses the result
// cache. (The production flow end to end lives in cmd/serve.)
func TestIncrementalDispatchesToRunner(t *testing.T) {
	var fullCalls, builds atomic.Int64
	srv, ts := startTestServer(t, sessionTestConfig(&builds), &fullCalls)
	info := registerSpec(t, ts.URL, "g", "grid:4x4")

	done := submitJobHTTP(t, ts.URL, "g", SparsifyParams{SigmaSq: 50, Incremental: true})
	if fullCalls.Load() != 0 || builds.Load() != 1 {
		t.Fatalf("runner calls: full=%d maintain=%d, want 0/1", fullCalls.Load(), builds.Load())
	}
	if r := done.Result; !r.Incremental || r.EdgesKept != info.M || r.VerifiedCond != 2 || !r.TargetMet || r.Session == nil {
		t.Fatalf("result = %+v, want the stub maintainer's summary", r)
	}
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("incremental result was cached (%d entries)", n)
	}
}

// TestIncrementalWithoutWarmStartFallsBack pins the other outcome: with
// the session layer off the job runs as the plain from-scratch job it
// would have been without the flag — still marked incremental, still
// uncached.
func TestIncrementalWithoutWarmStartFallsBack(t *testing.T) {
	var fullCalls atomic.Int64
	cfg := sessionTestConfig(nil)
	cfg.SessionMax = -1
	srv, ts := startTestServer(t, cfg, &fullCalls)
	registerSpec(t, ts.URL, "g", "grid:4x4")

	done := submitJobHTTP(t, ts.URL, "g", SparsifyParams{SigmaSq: 50, Incremental: true})
	if fullCalls.Load() != 1 {
		t.Fatalf("from-scratch runner ran %d times, want 1", fullCalls.Load())
	}
	if r := done.Result; !r.Incremental || r.SessionHit || r.Session != nil {
		t.Fatalf("plain incremental result = %+v, want Incremental and no session", r)
	}
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("incremental result was cached (%d entries)", n)
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
