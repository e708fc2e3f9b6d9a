package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphspar/internal/graph"
)

// TestAdmissionWatermarkBoundaries pins the shed decision exactly at the
// watermark on both axes: a backlog depth of queueHigh-1 admits and
// queueHigh sheds; stream slot streamHigh is granted and streamHigh+1 is
// not. A nil controller (admission unconfigured) admits everything.
func TestAdmissionWatermarkBoundaries(t *testing.T) {
	jobCases := []struct {
		name      string
		queueHigh int
		depth     int
		admit     bool
	}{
		{"disabled admits any depth", 0, 1 << 20, true},
		{"below watermark", 4, 2, true},
		{"last slot below watermark", 4, 3, true},
		{"exactly at watermark sheds", 4, 4, false},
		{"above watermark sheds", 4, 5, false},
		{"watermark one sheds first queued", 1, 1, false},
		{"watermark one admits empty backlog", 1, 0, true},
	}
	for _, tc := range jobCases {
		a := newAdmissionController(Config{AdmissionQueueHigh: tc.queueHigh}, newServerMetrics(nil))
		if got := a.admitJob(tc.depth); got != tc.admit {
			t.Errorf("%s: admitJob(depth=%d) with queueHigh=%d = %v, want %v",
				tc.name, tc.depth, tc.queueHigh, got, tc.admit)
		}
	}

	var nilCtl *admissionController
	if !nilCtl.admitJob(1 << 30) {
		t.Error("nil controller must admit jobs")
	}
	if _, ok := nilCtl.acquireStream(); !ok {
		t.Error("nil controller must admit streams")
	}

	a := newAdmissionController(Config{AdmissionStreamHigh: 2}, newServerMetrics(nil))
	rel1, ok1 := a.acquireStream()
	rel2, ok2 := a.acquireStream()
	if !ok1 || !ok2 {
		t.Fatalf("first two streams must be admitted: %v %v", ok1, ok2)
	}
	if _, ok := a.acquireStream(); ok {
		t.Error("stream beyond the watermark must be shed")
	}
	if n := a.inFlightStreams(); n != 2 {
		t.Errorf("in-flight streams = %d, want 2 (rejected acquire must not leak a slot)", n)
	}
	rel1()
	if _, ok := a.acquireStream(); !ok {
		t.Error("released slot must be grantable again")
	}
	rel2()
}

// blockingConfig wires a Sparsify stub that blocks until release is
// closed, so tests can hold the worker pool busy deterministically.
func blockingConfig(workers, backlog, queueHigh int, release chan struct{}) Config {
	return Config{
		Workers:            workers,
		Backlog:            backlog,
		CacheSize:          -1, // a cache hit would bypass admission
		AdmissionQueueHigh: queueHigh,
		Sparsify: func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &JobResult{SigmaSqAchieved: p.SigmaSq, TargetMet: true, Sparsifier: g}, nil
		},
	}
}

// TestAdmissionShedsWithRetryAfter drives the job-submit route past the
// queue watermark over real HTTP and checks the full 429 contract:
// status, Retry-After header, JSON error body, and the per-route
// rejection counter on /metrics.
func TestAdmissionShedsWithRetryAfter(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ts := newTestServer(t, blockingConfig(1, 8, 1, release), nil)
	registerSpec(t, ts.URL, "g", "grid:6x6")

	submit := func(sigma2 float64) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(fmt.Sprintf(`{"graph":"g","sigma2":%g}`, sigma2)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	// First job occupies the single blocked worker. Wait until it leaves
	// the backlog so the depth the watermark sees is deterministic.
	if resp, body := submit(50); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: %d %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srvDepth(t, ts.URL) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up job 1")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Second job queues (depth 0 < watermark 1); third must shed.
	if resp, body := submit(51); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: %d %s", resp.StatusCode, body)
	}
	resp, body := submit(52)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: got %d %s, want 429", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want %q", got, "1")
	}
	if !strings.Contains(body, "saturated") {
		t.Errorf("429 body %q should carry the saturation error", body)
	}

	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	raw, _ := io.ReadAll(metrics.Body)
	if !strings.Contains(string(raw), `graphspar_admission_rejections_total{route="jobs"} 1`) {
		t.Errorf("metrics missing the jobs rejection count:\n%s", grepLines(string(raw), "admission"))
	}
}

// srvDepth reads the backlog depth from /v1/healthz.
func srvDepth(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Queued int `json:"queued"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Queued
}

// grepLines filters exposition text to lines containing needle, for
// compact failure messages.
func grepLines(text, needle string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, needle) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestAdmissionSoakNoServerErrors hammers the submit route at well over
// 2x the pool's drain rate and asserts the overload contract: every
// response is either an accept (202), a cache-less re-accept, or a
// deliberate 429 — never a 5xx. The watermark sits below the hard
// backlog bound, so ErrQueueFull's 503 must be unreachable.
func TestAdmissionSoakNoServerErrors(t *testing.T) {
	cfg := Config{
		Workers:            1,
		Backlog:            8,
		CacheSize:          -1,
		AdmissionQueueHigh: 4, // shed at half the backlog: 503 unreachable
		Sparsify: func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
			time.Sleep(2 * time.Millisecond) // ~500 jobs/s capacity
			return &JobResult{SigmaSqAchieved: p.SigmaSq, TargetMet: true, Sparsifier: g}, nil
		},
	}
	ts := newTestServer(t, cfg, nil)
	registerSpec(t, ts.URL, "g", "grid:6x6")

	const clients, perClient = 8, 40
	var accepted, rejected, serverErrs atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				body := fmt.Sprintf(`{"graph":"g","sigma2":%d}`, 40+c*perClient+i)
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					serverErrs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK:
					accepted.Add(1)
				case resp.StatusCode == http.StatusTooManyRequests:
					rejected.Add(1)
				case resp.StatusCode >= 500:
					serverErrs.Add(1)
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
			}
		}(c)
	}
	wg.Wait()
	t.Logf("soak: %d accepted, %d shed with 429, %d server errors",
		accepted.Load(), rejected.Load(), serverErrs.Load())
	if serverErrs.Load() != 0 {
		t.Errorf("%d responses were 5xx; overload must shed with 429, never fail with a server error", serverErrs.Load())
	}
	if rejected.Load() == 0 {
		t.Error("soak at 2x+ capacity never tripped admission control; watermark is not engaging")
	}
	if accepted.Load() == 0 {
		t.Error("soak accepted nothing; shedding must be partial, not total")
	}
}
