package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"graphspar/internal/cli"
	"graphspar/internal/dynamic"
	"graphspar/internal/graph"
)

// fuzzServer builds a handler whose sparsifier is stubbed out (fuzzing
// exercises the HTTP surface, not the numerics) and whose graphs come
// from tiny specs only.
func fuzzServer(t testing.TB) http.Handler {
	srv := NewServer(Config{
		Workers: 1,
		Sparsify: func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
			return &JobResult{EdgesKept: g.M(), TargetMet: true, Sparsifier: g}, nil
		},
	})
	t.Cleanup(func() { _ = srv.Queue().Shutdown(context.Background()) })
	return srv.Handler()
}

// FuzzUploadHandler throws arbitrary bytes at PUT /v1/graphs/{name}: the
// handler must always answer with a well-formed status — 201 for a valid
// connected MatrixMarket graph, 4xx otherwise — and must never panic or
// 500 on malformed input.
func FuzzUploadHandler(f *testing.F) {
	f.Add([]byte("%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n2 1 1\n3 2 1\n3 1 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n3 3 1\n1 2 1\n")) // disconnected
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n1000000000 1000000000 0\n"))
	f.Add([]byte("garbage"))
	f.Add([]byte(""))
	handler := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPut, "/v1/graphs/fz", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req) // a panic fails the fuzz run
		code := rec.Code
		if code != http.StatusCreated && (code < 400 || code >= 500) {
			t.Fatalf("PUT upload returned %d (body %q)", code, rec.Body.String())
		}
		if code == http.StatusCreated {
			// Accepted graphs must round-trip through the download path.
			dl := httptest.NewRequest(http.MethodGet, "/v1/graphs/fz/laplacian.mtx", nil)
			drec := httptest.NewRecorder()
			handler.ServeHTTP(drec, dl)
			if drec.Code != http.StatusOK {
				t.Fatalf("download of accepted upload returned %d", drec.Code)
			}
			del := httptest.NewRequest(http.MethodDelete, "/v1/graphs/fz", nil)
			handler.ServeHTTP(httptest.NewRecorder(), del)
		}
	})
}

// FuzzGraphSpec exercises the registration path's spec validation plus
// the generator dispatch in cli.LoadGraph. Specs past a small work budget
// are only budget-checked (the real handler enforces the same shape of
// bound); cheap specs run the actual generator, which must error or
// produce a valid graph — never panic.
func FuzzGraphSpec(f *testing.F) {
	for _, s := range []string{
		"grid:4x4", "grid:4x4:log", "grid3d:2x2x2", "trimesh:3x3",
		"annulus:3x6", "knn:20,3,2", "ba:20,2", "barbell:4,2",
		"coauth:20,2,0.3", "ws:16,4,0.1", "dense:16,4", "regular:16,4",
		"grid:0x0", "grid:-1x-1", "knn:1e9,2,2", "nope:1,2", "", ":",
		"grid:4x4:bogus", "barbell:999999999,999999999",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if len(spec) > 64 {
			return
		}
		// Mirror the handler's pre-checks: path specs are rejected before
		// any filesystem access, and the budget gates generator work. The
		// fuzz budget is tiny so each exec stays fast.
		if strings.HasSuffix(spec, ".mtx") || strings.ContainsAny(spec, `/\`) {
			return
		}
		if err := checkSpecBudget(spec, 20_000); err != nil {
			return
		}
		g, err := cli.LoadGraph(spec, 1)
		if err != nil {
			return
		}
		if g.N() < 0 || g.M() < 0 {
			t.Fatalf("spec %q produced invalid graph %v", spec, g)
		}
		_ = g.IsConnected()
	})
}

// FuzzPatchEdges feeds arbitrary JSON bodies to the PATCH endpoint over a
// real registered graph: every response must be a well-formed status and
// the stored graph must stay connected no matter what the body held.
func FuzzPatchEdges(f *testing.F) {
	valid, _ := json.Marshal(patchRequest{Updates: []dynamic.EventJSON{{Op: "insert", U: 0, V: 5, W: 1}}})
	f.Add(string(valid))
	bridge, _ := json.Marshal(patchRequest{Updates: []dynamic.EventJSON{{Op: "delete", U: 0, V: 1}}})
	f.Add(string(bridge))
	f.Add(`{"updates":[{"op":"reweight","u":1,"v":2,"w":1e308}]}`)
	f.Add(`{"updates":[{"op":"insert","u":-1,"v":2,"w":1}]}`)
	f.Add(`{"updates":[]}`)
	f.Add(`{`)
	f.Add(`null`)
	handler := fuzzServer(f)
	reg, _ := json.Marshal(registerRequest{Name: "g", Spec: "grid:3x3"})
	req := httptest.NewRequest(http.MethodPost, "/v1/graphs", bytes.NewReader(reg))
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		f.Fatalf("seed graph registration failed: %d", rec.Code)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPatch, "/v1/graphs/g/edges", strings.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code >= 500) {
			t.Fatalf("PATCH returned %d for body %q", rec.Code, body)
		}
		// Whatever happened, the stored graph must still be connected.
		get := httptest.NewRequest(http.MethodGet, "/v1/graphs/g", nil)
		grec := httptest.NewRecorder()
		handler.ServeHTTP(grec, get)
		if grec.Code != http.StatusOK {
			t.Fatalf("graph lost after PATCH body %q", body)
		}
	})
}
