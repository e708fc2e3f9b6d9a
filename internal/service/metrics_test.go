package service

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"graphspar/internal/dynamic"
	"graphspar/internal/graph"
	"graphspar/internal/obs"
	"graphspar/internal/sessions"
)

// tracingMaintainer is a stubMaintainer whose Apply records a phase
// span, standing in for the real maintainer's settle/refilter spans.
type tracingMaintainer struct{ stubMaintainer }

func (f *tracingMaintainer) Apply(ctx context.Context, batch []dynamic.Update) error {
	defer obs.StartSpan(ctx, "settle").End()
	return f.stubMaintainer.Apply(ctx, batch)
}

func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsEndToEnd drives the full request mix through the HTTP
// stack — register, job, cold stream install, PATCH session hit — and
// asserts the scrape reflects every instrument class: request counters,
// job completions, stream batch outcomes, session hits, and the
// scrape-time state gauges.
func TestMetricsEndToEnd(t *testing.T) {
	cfg := sessionTestConfig(nil)
	cfg.Metrics = obs.NewRegistry()
	cfg.Maintain = func(ctx context.Context, g *graph.Graph, p SparsifyParams) (sessions.Maintainer, error) {
		return &tracingMaintainer{stubMaintainer{g: g}}, nil
	}
	ts := newTestServer(t, cfg, nil)

	registerSpec(t, ts.URL, "g", "grid:6x6")

	var job Job
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", map[string]any{"graph": "g", "sigma2": 50}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	if job = pollJob(t, ts.URL, job.ID); job.Status != StatusDone {
		t.Fatalf("job: %+v", job)
	}

	// Cold stream batch installs the session; the PATCH then hits it.
	code, lines := streamLines(t, ts.URL, "g", "?sigma2=50", `{"op":"insert","u":0,"v":7,"w":1}`+"\n")
	if code != http.StatusOK || len(lines) < 2 || lines[0]["applied"] != true {
		t.Fatalf("stream: %d %v", code, lines)
	}
	var pr patchResponse
	code, raw = doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/g/edges?trace=1",
		map[string]any{"updates": []map[string]any{{"op": "reweight", "u": 0, "v": 7, "w": 2}}}, &pr)
	if code != http.StatusOK || pr.Session != "hit" {
		t.Fatalf("patch: %d %s", code, raw)
	}
	// ?trace=1 through a session hit surfaces the maintainer's phases.
	if len(pr.Phases) == 0 || pr.Phases[0].Phase != "settle" {
		t.Errorf("patch phases = %+v, want a settle span", pr.Phases)
	}

	body := scrape(t, ts.URL)
	for _, want := range []string{
		`graphspar_jobs_completed_total{status="done"} 1`,
		`graphspar_http_requests_total{route="POST /v1/jobs",method="POST",code="202"} 1`,
		`graphspar_http_request_seconds_count{route="POST /v1/jobs"} 1`,
		`graphspar_stream_batches_total{outcome="applied"} 1`,
		`graphspar_session_hits_total 1`,
		`graphspar_session_installs_total 1`,
		`graphspar_session_builds_total{origin="stream"} 1`,
		`graphspar_graphs_registered 1`,
		`graphspar_job_queue_depth 0`,
		`graphspar_jobs_in_flight 0`,
		`graphspar_job_workers 1`,
		`graphspar_job_wait_seconds_count 1`,
		`graphspar_job_run_seconds_count 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestHealthzQueueFields: healthz reports backlog depth, in-flight
// worker count and pool size.
func TestHealthzQueueFields(t *testing.T) {
	cfg := Config{Workers: 3}
	cfg.Metrics = obs.NewRegistry()
	ts := newTestServer(t, cfg, nil)
	var h struct {
		Status   string `json:"status"`
		Queued   int    `json:"queued"`
		InFlight int    `json:"in_flight"`
		Workers  int    `json:"workers"`
	}
	code, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil, &h)
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, raw)
	}
	if h.Status != "ok" || h.Workers != 3 || h.InFlight != 0 {
		t.Errorf("healthz = %+v", h)
	}
	if !strings.Contains(raw, `"in_flight"`) || !strings.Contains(raw, `"workers"`) {
		t.Errorf("healthz body missing queue fields: %s", raw)
	}
}
