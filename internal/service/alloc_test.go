package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

// This file pins the serving fast path's allocation budget. Each
// scenario is one steady-state request shape the daemon serves at rate —
// a job submission answered from the result cache, a PATCH routed
// through a warm session, and a full drain of each stream decoder — and
// each gets a hard AllocsPerRun ceiling. The ceilings carry headroom
// over the measured numbers (runtime/libc variance, map growth
// amortization) but sit far below what a per-event or per-entity
// allocation regression would produce. With BENCH_ALLOC_JSON set, the
// measured numbers are also published for CI artifacts, next to the
// loadgen's BENCH_serve.json.

// allocServer builds an in-process server (no TCP) with a registered
// grid graph, a warmed result cache for sigma2=60, and a resident
// session for the graph, then returns the routed handler.
func allocServer(t *testing.T) http.Handler {
	t.Helper()
	srv := NewServer(sessionTestConfig(nil))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Queue().Shutdown(ctx)
	})
	h := srv.Handler()

	do := func(method, path, contentType string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	if rec := do(http.MethodPost, "/v1/graphs", "application/json",
		[]byte(`{"name":"g","spec":"grid:8x8","seed":1}`)); rec.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	// Warm the result cache: run one real (stubbed) job to completion.
	rec := do(http.MethodPost, "/v1/jobs", "application/json", []byte(`{"graph":"g","sigma2":60}`))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	var job Job
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, err := srv.Queue().Get(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status == StatusDone {
			break
		}
		if j.Status == StatusFailed || j.Status == StatusCanceled || time.Now().After(deadline) {
			t.Fatalf("warm job never completed: %+v", j)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Make the graph's session resident so PATCH takes the hit path.
	entry, err := srv.registry.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if sess := srv.sessions.Install("g", "", &stubMaintainer{g: entry.Graph}); sess == nil {
		t.Fatal("session install rejected")
	}
	return h
}

// TestRequestAllocCeilings measures the allocations of one request on
// each serving fast path and holds them under their ceilings. Before the
// fast-path work (pooled response encoding, content-hash result reuse)
// the cache-hit submit path alone sat well above twice its current
// ceiling. Measured 44 / 61 / 15 / 15; no scenario here reaches a solver,
// so solver scratch does not figure in these numbers.
func TestRequestAllocCeilings(t *testing.T) {
	h := allocServer(t)

	serve := func(method, path, contentType string, body []byte, wantCode int) func() {
		return func() {
			req := httptest.NewRequest(method, path, bytes.NewReader(body))
			if contentType != "" {
				req.Header.Set("Content-Type", contentType)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != wantCode {
				t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
			}
		}
	}

	const decodeEvents = 4096
	textBody := buildEventBody(decodeEvents, 64, false)
	binBody := buildBinaryEventBody(t, decodeEvents, 64)
	drain := func(f func([]byte) (int, error), body []byte) func() {
		return func() {
			if n, err := f(body); err != nil || n != decodeEvents {
				t.Fatalf("drain: %d events, err %v", n, err)
			}
		}
	}

	scenarios := []struct {
		name    string
		ceiling float64
		run     func()
	}{
		// Cache-hit job submission: JSON decode, registry + cache lookup,
		// job bookkeeping, pooled JSON encode. No sparsifier work.
		{"job_submit_cache_hit", 80,
			serve(http.MethodPost, "/v1/jobs", "application/json",
				[]byte(`{"graph":"g","sigma2":60}`), http.StatusOK)},
		// Session-hit PATCH: body decode, session apply (graph copy for a
		// 64-vertex grid), registry CAS, pooled JSON encode.
		{"patch_session_hit", 130,
			serve(http.MethodPatch, "/v1/graphs/g/edges", "application/json",
				[]byte(`{"updates":[{"op":"reweight","u":0,"v":1,"w":2.5}]}`), http.StatusOK)},
		// Full drains of both stream decoders; same ceilings as the
		// dedicated decoder tests, restated here so the published numbers
		// cover every fast path in one artifact.
		{"stream_decode_text_4096", 40, drain(drainDecoder, textBody)},
		{"stream_decode_binary_4096", 40, drain(drainBinaryDecoder, binBody)},
	}

	type measurement struct {
		Name        string  `json:"name"`
		AllocsPerOp float64 `json:"allocs_per_op"`
		Ceiling     float64 `json:"ceiling"`
	}
	var results []measurement
	for _, sc := range scenarios {
		sc.run() // warm: first request pays one-time pool/map setup
		per := testing.AllocsPerRun(50, sc.run)
		t.Logf("%s: %.1f allocs/op (ceiling %.0f)", sc.name, per, sc.ceiling)
		if per > sc.ceiling {
			t.Errorf("%s allocated %.1f times per op; ceiling is %.0f", sc.name, per, sc.ceiling)
		}
		results = append(results, measurement{sc.name, per, sc.ceiling})
	}

	if path := os.Getenv("BENCH_ALLOC_JSON"); path != "" && !t.Failed() {
		out, err := json.MarshalIndent(struct {
			Scenarios []measurement `json:"scenarios"`
		}{results}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}
