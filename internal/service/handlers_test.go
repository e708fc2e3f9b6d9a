package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphspar/internal/dynamic"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/mm"
)

// startTestServer spins up the full HTTP stack. Jobs run against the
// injected (stub) runner; tests of the production runners live in
// cmd/serve, where the graphspar-facade-backed implementations are wired
// in. calls, when set, counts from-scratch runs (a nil cfg.Sparsify then
// gets a stub to count).
func startTestServer(t *testing.T, cfg Config, calls *atomic.Int64) (*Server, *httptest.Server) {
	t.Helper()
	if calls != nil {
		inner := cfg.Sparsify
		if inner == nil {
			inner = func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
				return &JobResult{SigmaSqAchieved: p.SigmaSq, TargetMet: true, Sparsifier: g}, nil
			}
		}
		cfg.Sparsify = func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
			calls.Add(1)
			return inner(ctx, g, p)
		}
	}
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Queue().Shutdown(ctx)
		if srv.sessions != nil {
			_ = srv.sessions.Close(ctx)
		}
	})
	return srv, ts
}

func newTestServer(t *testing.T, cfg Config, calls *atomic.Int64) *httptest.Server {
	t.Helper()
	_, ts := startTestServer(t, cfg, calls)
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
func pollJob(t *testing.T, base, id string) Job {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var job Job
		code, raw := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil, &job)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: %d %s", id, code, raw)
		}
		switch job.Status {
		case StatusDone, StatusFailed, StatusCanceled:
			return job
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return Job{}
}

// TestJobCacheShortCircuitOverHTTP drives the cache-aware submission path
// with a counting stub: identical and coarser-σ² resubmissions are served
// from cache without re-running the sparsifier. (The production-runner
// end-to-end scenario lives in cmd/serve, where the graphspar-backed
// runners are wired in.)
func TestJobCacheShortCircuitOverHTTP(t *testing.T) {
	var calls atomic.Int64
	ts := newTestServer(t, Config{Workers: 2, Backlog: 8, CacheSize: 16}, &calls)

	var info graphInfo
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs",
		registerRequest{Name: "grid10", Spec: "grid:10x10:uniform", Seed: 7}, &info)
	if code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, raw)
	}

	var job Job
	code, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		submitRequest{Graph: "grid10", SparsifyParams: SparsifyParams{SigmaSq: 60}}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	if done := pollJob(t, ts.URL, job.ID); done.Status != StatusDone {
		t.Fatalf("job: %+v", done)
	}

	// Identical resubmission: served from cache, runner NOT re-run.
	var cached Job
	code, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		submitRequest{Graph: "grid10", SparsifyParams: SparsifyParams{SigmaSq: 60}}, &cached)
	if code != http.StatusOK {
		t.Fatalf("cached submit: %d %s", code, raw)
	}
	if cached.Status != StatusDone || cached.CacheHit != CacheExact {
		t.Errorf("cached job = status %s cache %q, want done/exact", cached.Status, cached.CacheHit)
	}
	// A coarser target is also served from the σ²=60 certificate.
	var coarser Job
	code, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		submitRequest{Graph: "grid10", SparsifyParams: SparsifyParams{SigmaSq: 5000}}, &coarser)
	if code != http.StatusOK {
		t.Fatalf("coarser submit: %d %s", code, raw)
	}
	if coarser.CacheHit != CacheCoarser {
		t.Errorf("coarser job cache = %q, want coarser", coarser.CacheHit)
	}
	if calls.Load() != 1 {
		t.Errorf("runner calls = %d, want 1", calls.Load())
	}
}

// TestUploadRoundTrip drives mm.Read → registry → mm.WriteGraph through
// the HTTP upload and download paths and checks the graph survives
// unchanged.
func TestUploadRoundTrip(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, Backlog: 2, CacheSize: 4}, nil)

	orig, err := gen.TriMesh(6, 7, gen.UniformWeights, 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mm.WriteGraph(&buf, orig); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/graphs/mesh", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, raw)
	}
	var info graphInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.N != orig.N() || info.M != orig.M() || info.Source != "upload" {
		t.Errorf("upload info = %+v, want n=%d m=%d", info, orig.N(), orig.M())
	}
	if info.Hash != HashGraph(orig) {
		t.Errorf("upload hash %s != local hash %s", info.Hash, HashGraph(orig))
	}

	// Download and compare edge by edge.
	dl, err := http.Get(ts.URL + "/v1/graphs/mesh/laplacian.mtx")
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Body.Close()
	m, err := mm.Read(dl.Body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != orig.N() || got.M() != orig.M() {
		t.Fatalf("round trip: n=%d m=%d, want n=%d m=%d", got.N(), got.M(), orig.N(), orig.M())
	}
	for i, e := range orig.Edges() {
		ge := got.Edge(i)
		if ge.U != e.U || ge.V != e.V {
			t.Fatalf("edge %d: (%d,%d) != (%d,%d)", i, ge.U, ge.V, e.U, e.V)
		}
		if diff := ge.W - e.W; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("edge %d weight: %v != %v", i, ge.W, e.W)
		}
	}
}

// TestUploadRejectsMalformed checks the upload path maps each failure
// mode to the right HTTP status.
func TestUploadRejectsMalformed(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, Backlog: 2, CacheSize: 4}, nil)

	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"empty body", "/v1/graphs/a", "", http.StatusBadRequest},
		{"garbage header", "/v1/graphs/b", "hello world\n1 1 1\n", http.StatusBadRequest},
		{"dense array format", "/v1/graphs/c",
			"%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n", http.StatusBadRequest},
		{"truncated entries", "/v1/graphs/d",
			"%%MatrixMarket matrix coordinate real symmetric\n3 3 5\n1 1 1.0\n", http.StatusBadRequest},
		{"hostile nnz header", "/v1/graphs/dd",
			"%%MatrixMarket matrix coordinate real symmetric\n3 3 4000000000\n1 1 1.0\n", http.StatusBadRequest},
		{"hostile dimension header", "/v1/graphs/de",
			"%%MatrixMarket matrix coordinate real symmetric\n1000000000 1000000000 1\n2 1 -1.0\n", http.StatusUnprocessableEntity},
		{"index out of range", "/v1/graphs/e",
			"%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n5 1 1.0\n", http.StatusBadRequest},
		{"rectangular matrix", "/v1/graphs/f",
			"%%MatrixMarket matrix coordinate real general\n2 3 1\n1 2 1.0\n", http.StatusBadRequest},
		{"disconnected graph", "/v1/graphs/g",
			"%%MatrixMarket matrix coordinate real symmetric\n4 4 2\n2 1 -1.0\n4 3 -1.0\n", http.StatusUnprocessableEntity},
		{"bad name", "/v1/graphs/bad%20name",
			"%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 -1.0\n", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodPut, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d (%s)", resp.StatusCode, tc.want, raw)
			}
			var apiErr apiError
			if err := json.Unmarshal(raw, &apiErr); err != nil || apiErr.Error == "" {
				t.Errorf("error body not JSON apiError: %s", raw)
			}
		})
	}
}

func TestGraphAPIErrors(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, Backlog: 2, CacheSize: 4}, nil)

	// Unknown graph.
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/graphs/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("get missing graph: %d", code)
	}
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("delete missing graph: %d", code)
	}
	// Bad generator spec.
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs",
		registerRequest{Name: "x", Spec: "warp:9"}, nil); code != http.StatusBadRequest {
		t.Errorf("bad spec: %d", code)
	}
	// File-path specs are refused over HTTP (the server must not open
	// local files for remote clients).
	for _, spec := range []string{"/etc/passwd.mtx", "problem.mtx", "../x.mtx", `C:\graphs\a.mtx`} {
		if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs",
			registerRequest{Name: "x", Spec: spec}, nil); code != http.StatusBadRequest {
			t.Errorf("file spec %q: %d, want 400", spec, code)
		}
	}
	// Oversized generator specs are refused before any allocation.
	for _, spec := range []string{"grid:100000x100000:uniform", "grid3d:1000x1000x1000", "dense:100000,10000"} {
		if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs",
			registerRequest{Name: "x", Spec: spec}, nil); code != http.StatusUnprocessableEntity {
			t.Errorf("huge spec %q: %d, want 422", spec, code)
		}
	}
	// Missing spec.
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs",
		registerRequest{Name: "x"}, nil); code != http.StatusBadRequest {
		t.Errorf("missing spec: %d", code)
	}
	// Name conflict with different content → 409.
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs",
		registerRequest{Name: "dup", Spec: "grid:4x4:unit"}, nil); code != http.StatusCreated {
		t.Fatalf("register dup failed")
	}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs",
		registerRequest{Name: "dup", Spec: "grid:5x5:unit"}, nil); code != http.StatusConflict {
		t.Errorf("conflicting register: %d, want 409", code)
	}
	// Idempotent re-register → 201 again.
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs",
		registerRequest{Name: "dup", Spec: "grid:4x4:unit"}, nil); code != http.StatusCreated {
		t.Errorf("idempotent re-register rejected")
	}
}

func TestJobAPIErrors(t *testing.T) {
	stub := func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
		return &JobResult{SigmaSqAchieved: p.SigmaSq, Sparsifier: g}, nil
	}
	ts := newTestServer(t, Config{Workers: 1, Backlog: 2, CacheSize: 4, Sparsify: stub}, nil)

	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs",
		registerRequest{Name: "g", Spec: "grid:4x4:unit"}, nil); code != http.StatusCreated {
		t.Fatal("register failed")
	}

	// Unknown graph → 404.
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		submitRequest{Graph: "nope", SparsifyParams: SparsifyParams{SigmaSq: 50}}, nil); code != http.StatusNotFound {
		t.Errorf("job on missing graph: %d", code)
	}
	// Bad σ² → 400.
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		submitRequest{Graph: "g", SparsifyParams: SparsifyParams{SigmaSq: 0.5}}, nil); code != http.StatusBadRequest {
		t.Errorf("bad sigma2: %d", code)
	}
	// Bad tree algorithm → 400.
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		submitRequest{Graph: "g", SparsifyParams: SparsifyParams{SigmaSq: 50, TreeAlg: "quantum"}}, nil); code != http.StatusBadRequest {
		t.Errorf("bad tree: %d", code)
	}
	// Missing graph name → 400.
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		submitRequest{SparsifyParams: SparsifyParams{SigmaSq: 50}}, nil); code != http.StatusBadRequest {
		t.Errorf("missing graph field: %d", code)
	}
	// Unknown job → 404.
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-999", nil, nil); code != http.StatusNotFound {
		t.Errorf("missing job: %d", code)
	}
	// Result download of an unfinished job → 409.
	var job Job
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		submitRequest{Graph: "g", SparsifyParams: SparsifyParams{SigmaSq: 50}}, &job); code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	pollJob(t, ts.URL, job.ID)
	// Now finished — downloads work.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/edges")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("edges of done job: %d", resp.StatusCode)
	}
}

func TestHealthEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, Backlog: 2, CacheSize: 4}, nil)
	var health struct {
		Status string     `json:"status"`
		Graphs int        `json:"graphs"`
		Cache  CacheStats `json:"cache"`
	}
	code, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil, &health)
	if code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz: %d %s", code, raw)
	}
	if health.Cache.Capacity != 4 {
		t.Errorf("cache capacity = %d, want 4", health.Cache.Capacity)
	}
}

func TestBacklogSheds503(t *testing.T) {
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	stub := func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &JobResult{Sparsifier: g}, nil
	}
	ts := newTestServer(t, Config{Workers: 1, Backlog: 1, Sparsify: stub}, nil)

	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs",
		registerRequest{Name: "g", Spec: "grid:4x4:unit"}, nil); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	// Saturate: 1 running + 1 queued, then expect 503.
	saw503 := false
	for i := 0; i < 6; i++ {
		code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
			submitRequest{Graph: "g", SparsifyParams: SparsifyParams{SigmaSq: float64(10 + i)}}, nil)
		if code == http.StatusServiceUnavailable {
			saw503 = true
			break
		}
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
	}
	if !saw503 {
		t.Error("saturated queue never returned 503")
	}
}

// TestDeleteGraphSweepsResultCache: the cached sparsifiers of a deleted
// graph must not stay pinned until LRU turns them over.
func TestDeleteGraphSweepsResultCache(t *testing.T) {
	var calls atomic.Int64
	srv, ts := startTestServer(t, Config{Workers: 1}, &calls)
	registerSpec(t, ts.URL, "g", "grid:4x4")
	submitJobHTTP(t, ts.URL, "g", SparsifyParams{SigmaSq: 50})
	if n := srv.cache.Len(); n != 1 {
		t.Fatalf("cache holds %d entries after the job, want 1", n)
	}
	if code, raw := doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/g", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d %s", code, raw)
	}
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("cache holds %d entries of a deleted graph", n)
	}
}

// TestPatchKeepsCacheLinesAnotherNameHolds: the result cache is keyed by
// content hash, so PATCHing one name away from a graph must not sweep the
// lines a second name with the same content still answers from.
func TestPatchKeepsCacheLinesAnotherNameHolds(t *testing.T) {
	for _, mode := range []string{"cold", "session"} {
		t.Run(mode, func(t *testing.T) {
			var calls atomic.Int64
			ts := newTestServer(t, sessionTestConfig(nil), &calls)
			registerSpec(t, ts.URL, "a", "grid:4x4")
			registerSpec(t, ts.URL, "b", "grid:4x4")
			submitJobHTTP(t, ts.URL, "a", SparsifyParams{SigmaSq: 50})
			if mode == "session" { // leave a session resident so the PATCH routes through it
				submitJobHTTP(t, ts.URL, "a", SparsifyParams{SigmaSq: 50, Incremental: true})
			}
			var patch patchResponse
			code, raw := doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/a/edges", patchRequest{
				Updates: []dynamic.EventJSON{{Op: "reweight", U: 0, V: 1, W: 2}},
			}, &patch)
			if code != http.StatusOK || patch.Evicted != 0 || (patch.Session == "hit") != (mode == "session") {
				t.Fatalf("PATCH a: %d %s", code, raw)
			}
			var job Job
			code, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
				submitRequest{Graph: "b", SparsifyParams: SparsifyParams{SigmaSq: 50}}, &job)
			if code != http.StatusOK || job.CacheHit != CacheExact || calls.Load() != 1 {
				t.Fatalf("identical job on b: %d cache=%q runs=%d, want 200/exact/1: %s", code, job.CacheHit, calls.Load(), raw)
			}
			// Once b moves on too, nobody holds the content and the lines go.
			code, raw = doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/b/edges", patchRequest{
				Updates: []dynamic.EventJSON{{Op: "reweight", U: 0, V: 1, W: 3}},
			}, &patch)
			if code != http.StatusOK || patch.Evicted != 1 {
				t.Fatalf("PATCH b: %d %s", code, raw)
			}
		})
	}
}

// TestUnknownBodyKeysRejected: a misspelt or retired body key is a 400
// naming it on every JSON-bodied route, never a silently different
// request ("shard": 4 must not run single-shot).
func TestUnknownBodyKeysRejected(t *testing.T) {
	var calls atomic.Int64
	ts := newTestServer(t, Config{Workers: 1}, &calls)
	registerSpec(t, ts.URL, "g", "grid:4x4")
	for _, c := range []struct {
		method, path, body, key string
	}{
		{http.MethodPost, "/v1/jobs", `{"graph":"g","sigma2":50,"shard":4}`, "shard"},
		{http.MethodPost, "/v1/jobs", `{"graph":"g","sigma2":50,"incremental":true,"warm_job":"job-1"}`, "warm_job"},
		// The retired bisector knob: Canon used to blank it unparsed on a
		// single-shot request, so even "bogus" was accepted.
		{http.MethodPost, "/v1/jobs", `{"graph":"g","sigma2":100,"partition":"bogus"}`, "partition"},
		{http.MethodPost, "/v1/jobs", `{"graph":"g","sigma2":100,"shards":2,"partition":"bfs"}`, "partition"},
		{http.MethodPost, "/v1/graphs", `{"name":"h","spec":"grid:4x4","sed":7}`, "sed"},
		{http.MethodPatch, "/v1/graphs/g/edges", `{"updates":[{"op":"reweight","u":0,"v":1,"w":2,"weight":2}]}`, "weight"},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), c.key) {
			t.Errorf("%s %s %s: %d %s, want 400 naming %q", c.method, c.path, c.body, resp.StatusCode, raw, c.key)
		}
	}
	if calls.Load() != 0 {
		t.Errorf("a rejected body still ran %d jobs", calls.Load())
	}
}
