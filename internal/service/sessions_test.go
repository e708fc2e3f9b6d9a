package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphspar/internal/dynamic"
	"graphspar/internal/graph"
	"graphspar/internal/sessions"
)

// stubMaintainer satisfies sessions.Maintainer with real graph mutation
// (dynamic.ApplyToGraph) but stubbed numerics, so the service's session
// routing can be tested without sparsifying anything.
type stubMaintainer struct {
	g       *graph.Graph
	applies int
	updates int
}

func (f *stubMaintainer) Apply(ctx context.Context, batch []dynamic.Update) error {
	g2, err := dynamic.ApplyToGraph(f.g, batch)
	if err != nil {
		return err
	}
	f.g = g2
	f.applies++
	f.updates += len(batch)
	return nil
}

func (f *stubMaintainer) Rebuild(ctx context.Context) error { return nil }
func (f *stubMaintainer) Graph() *graph.Graph               { return f.g }
func (f *stubMaintainer) Sparsifier() *graph.Graph          { return f.g }
func (f *stubMaintainer) Cond() float64                     { return 2 }
func (f *stubMaintainer) TargetMet() bool                   { return true }
func (f *stubMaintainer) ResidentBytes() int64              { return 1 << 10 }
func (f *stubMaintainer) Stats() dynamic.Stats {
	return dynamic.Stats{Applies: f.applies, Updates: f.updates, Cond: 2, TargetMet: true}
}

// sessionTestConfig wires stub Maintain/Resume runners plus counters.
func sessionTestConfig(maintains, resumes *atomic.Int64) Config {
	return Config{
		Workers: 1,
		Sparsify: func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
			return &JobResult{SigmaSqAchieved: p.SigmaSq, TargetMet: true, Sparsifier: g}, nil
		},
		Maintain: func(ctx context.Context, g *graph.Graph, p SparsifyParams) (sessions.Maintainer, error) {
			if maintains != nil {
				maintains.Add(1)
			}
			return &stubMaintainer{g: g}, nil
		},
		Resume: func(ctx context.Context, g, warm *graph.Graph, p SparsifyParams) (sessions.Maintainer, error) {
			if resumes != nil {
				resumes.Add(1)
			}
			return &stubMaintainer{g: g}, nil
		},
	}
}

// streamLines POSTs an event body to the stream endpoint and decodes
// every NDJSON response line.
func streamLines(t *testing.T, base, name, query, body string) (int, []map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/v1/graphs/"+name+"/stream"+query, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Error statuses carry one indented-JSON error object, not NDJSON.
		return resp.StatusCode, nil
	}
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, lines
}

func TestStreamEndpointAppliesBatches(t *testing.T) {
	var maintains atomic.Int64
	ts := newTestServer(t, sessionTestConfig(&maintains, nil), nil)
	info := registerSpec(t, ts.URL, "g", "grid:6x6")

	// Three batches: text insert, NDJSON reweight, and a bridge-free
	// delete of the edge just inserted. Mixed spellings on purpose.
	body := "+ 0 35 1.5\ncommit\n" +
		`{"op":"reweight","u":0,"v":1,"w":2.5}` + "\n" + `{"op":"commit"}` + "\n" +
		"- 0 35\n"
	code, lines := streamLines(t, ts.URL, "g", "?sigma2=50", body)
	if code != http.StatusOK {
		t.Fatalf("stream: %d", code)
	}
	if len(lines) != 4 { // 3 batch lines + summary
		t.Fatalf("got %d lines: %v", len(lines), lines)
	}
	for i, line := range lines[:3] {
		if line["applied"] != true {
			t.Fatalf("batch %d not applied: %v", i+1, line)
		}
		if line["condition_number"].(float64) != 2 || line["target_met"] != true {
			t.Fatalf("batch %d certificate missing: %v", i+1, line)
		}
	}
	if lines[0]["session"] != "cold" || lines[1]["session"] != "hit" || lines[2]["session"] != "hit" {
		t.Fatalf("session states: %v %v %v", lines[0]["session"], lines[1]["session"], lines[2]["session"])
	}
	sum := lines[3]
	if sum["done"] != true || sum["batches"].(float64) != 3 || sum["applied_total"].(float64) != 3 {
		t.Fatalf("summary: %v", sum)
	}
	if sum["session_stats"] == nil {
		t.Fatalf("summary lacks session stats: %v", sum)
	}
	if maintains.Load() != 1 {
		t.Fatalf("maintainer built %d times, want 1 (session reuse)", maintains.Load())
	}

	// The registry advanced in lockstep: net effect of the three batches
	// is a reweight only, so m is unchanged but the hash moved.
	var got graphInfo
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/graphs/g", nil, &got); code != http.StatusOK {
		t.Fatalf("GET: %d %s", code, raw)
	}
	if got.Hash == info.Hash || got.M != info.M {
		t.Fatalf("registry after stream: %+v (was %+v)", got, info)
	}
	if h := sum["graph"].(map[string]any)["hash"]; h != got.Hash {
		t.Fatalf("summary hash %v != registry %v", h, got.Hash)
	}
}

func TestStreamRejectsBridgeDeleteAndContinues(t *testing.T) {
	ts := newTestServer(t, sessionTestConfig(nil, nil), nil)
	registerSpec(t, ts.URL, "g", "grid:3x3")

	// Batch 1 deletes a bridge-making pair (rejected atomically), batch 2
	// is a valid reweight: the stream must keep going.
	body := "- 0 1\n- 0 3\ncommit\n= 1 2 3.5\n"
	code, lines := streamLines(t, ts.URL, "g", "?sigma2=50", body)
	if code != http.StatusOK {
		t.Fatalf("stream: %d", code)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines: %v", len(lines), lines)
	}
	if lines[0]["rejected"] != true || lines[0]["error"] == nil {
		t.Fatalf("bridge delete not rejected: %v", lines[0])
	}
	if lines[1]["applied"] != true {
		t.Fatalf("stream did not continue past rejection: %v", lines[1])
	}
	sum := lines[2]
	if sum["applied_total"].(float64) != 1 || sum["rejected_total"].(float64) != 1 {
		t.Fatalf("summary: %v", sum)
	}
}

func TestStreamDecodeErrorTerminates(t *testing.T) {
	ts := newTestServer(t, sessionTestConfig(nil, nil), nil)
	registerSpec(t, ts.URL, "g", "grid:3x3")
	code, lines := streamLines(t, ts.URL, "g", "?sigma2=50", "= 1 2 2.0\ncommit\nnot an event\n= 1 2 1.0\n")
	if code != http.StatusOK {
		t.Fatalf("stream: %d", code)
	}
	// One applied batch, one error line, then the summary.
	if len(lines) != 3 {
		t.Fatalf("got %d lines: %v", len(lines), lines)
	}
	if lines[1]["error"] == nil {
		t.Fatalf("decode error not reported: %v", lines[1])
	}
	if lines[2]["batches"].(float64) != 1 {
		t.Fatalf("summary: %v", lines[2])
	}
}

func TestStreamRequiresSigma2AndSessions(t *testing.T) {
	ts := newTestServer(t, sessionTestConfig(nil, nil), nil)
	registerSpec(t, ts.URL, "g", "grid:3x3")
	// A maintainer can honour neither a job-only parameter nor a typo, so
	// neither may be dropped silently; an infinite target is no target.
	for _, query := range []string{
		"", // missing sigma2
		"?sigma2=Inf",
		"?sigma2=50&mode=multilevel",
		"?sigma2=50&max_edges=500",
		"?sigma2=50&shard=4",
	} {
		if code, _ := streamLines(t, ts.URL, "g", query, "= 1 2 2\n"); code != http.StatusBadRequest {
			t.Errorf("stream%s: %d, want 400", query, code)
		}
	}
	if code, _ := streamLines(t, ts.URL, "g", "?sigma2=50&trace=1", "= 1 2 2\n"); code != http.StatusOK {
		t.Errorf("trace=1 must stay accepted: %d", code)
	}
	if code, _ := streamLines(t, ts.URL, "nope", "?sigma2=50", "= 1 2 2\n"); code != http.StatusNotFound {
		t.Fatalf("unknown graph: %d, want 404", code)
	}

	// A stub server without maintainer runners has sessions disabled.
	var calls atomic.Int64
	plain := newTestServer(t, Config{}, &calls)
	registerSpec(t, plain.URL, "g", "grid:3x3")
	if code, _ := streamLines(t, plain.URL, "g", "?sigma2=50", "= 1 2 2\n"); code != http.StatusNotImplemented {
		t.Fatalf("disabled sessions: %d, want 501", code)
	}
}

func TestPatchRoutesThroughSessionAndReportsState(t *testing.T) {
	ts := newTestServer(t, sessionTestConfig(nil, nil), nil)
	registerSpec(t, ts.URL, "g", "grid:6x6")

	// No session yet: PATCH reports a miss but still applies cold.
	var cold patchResponse
	code, raw := doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/g/edges", patchRequest{
		Updates: []dynamic.EventJSON{{Op: "reweight", U: 0, V: 1, W: 2}},
	}, &cold)
	if code != http.StatusOK {
		t.Fatalf("cold PATCH: %d %s", code, raw)
	}
	if cold.Session != "miss" {
		t.Fatalf("session = %q, want miss", cold.Session)
	}
	if cold.SessionStats != nil {
		t.Fatalf("cold PATCH must not carry session stats: %+v", cold.SessionStats)
	}

	// A stream request installs the session; the next PATCH hits it.
	if code, _ := streamLines(t, ts.URL, "g", "?sigma2=50", "= 0 1 3\n"); code != http.StatusOK {
		t.Fatalf("stream install: %d", code)
	}
	var warm patchResponse
	code, raw = doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/g/edges", patchRequest{
		Updates: []dynamic.EventJSON{{Op: "insert", U: 0, V: 35, W: 1.25}},
	}, &warm)
	if code != http.StatusOK {
		t.Fatalf("warm PATCH: %d %s", code, raw)
	}
	if warm.Session != "hit" {
		t.Fatalf("session = %q, want hit", warm.Session)
	}
	if warm.SessionStats == nil || warm.SessionStats.BatchesApplied != 2 {
		t.Fatalf("session stats after warm PATCH: %+v", warm.SessionStats)
	}
	if warm.M != 60+1 { // grid:6x6 has 60 edges; the insert added one
		t.Fatalf("M = %d", warm.M)
	}

	// A rejected batch through the session maps to the same status codes
	// as the cold path and leaves the session resident.
	code, raw = doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/g/edges", patchRequest{
		Updates: []dynamic.EventJSON{{Op: "insert", U: 0, V: 35, W: 1}},
	}, nil)
	if code != http.StatusConflict {
		t.Fatalf("duplicate insert: %d %s", code, raw)
	}
	var again patchResponse
	code, _ = doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/g/edges", patchRequest{
		Updates: []dynamic.EventJSON{{Op: "delete", U: 0, V: 35}},
	}, &again)
	if code != http.StatusOK || again.Session != "hit" {
		t.Fatalf("session must survive a rejected batch: %d %q", code, again.Session)
	}

	// Deleting the graph closes its session.
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/g", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	var health struct {
		Sessions *sessions.ManagerStats `json:"sessions"`
	}
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, raw)
	}
	if health.Sessions == nil || health.Sessions.Sessions != 0 {
		t.Fatalf("sessions after graph delete: %+v", health.Sessions)
	}
}

func TestIncrementalJobServedFromSession(t *testing.T) {
	var resumes atomic.Int64
	ts := newTestServer(t, sessionTestConfig(nil, &resumes), nil)
	registerSpec(t, ts.URL, "g", "grid:6x6")

	// Full job gives the warm-start source.
	var job Job
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", struct {
		Graph string `json:"graph"`
		SparsifyParams
	}{"g", SparsifyParams{SigmaSq: 50}}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	full := waitJobHTTP(t, ts.URL, job.ID)

	// First incremental job: cold Resume installs the session.
	code, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", struct {
		Graph string `json:"graph"`
		SparsifyParams
	}{"g", SparsifyParams{SigmaSq: 50, Incremental: true}}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("submit incremental: %d %s", code, raw)
	}
	inc1 := waitJobHTTP(t, ts.URL, job.ID)
	if inc1.Result == nil || !inc1.Result.Incremental || inc1.Result.SessionHit {
		t.Fatalf("first incremental: %+v", inc1.Result)
	}
	if inc1.Result.WarmSource != full.ID {
		t.Fatalf("warm source = %q, want %q", inc1.Result.WarmSource, full.ID)
	}
	if resumes.Load() != 1 {
		t.Fatalf("resume ran %d times, want 1", resumes.Load())
	}

	// Second incremental job: served from the resident session; the
	// Resume runner must NOT run again.
	code, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", struct {
		Graph string `json:"graph"`
		SparsifyParams
	}{"g", SparsifyParams{SigmaSq: 50, Incremental: true}}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("submit incremental 2: %d %s", code, raw)
	}
	inc2 := waitJobHTTP(t, ts.URL, job.ID)
	if inc2.Result == nil || !inc2.Result.SessionHit {
		t.Fatalf("second incremental must be a session hit: %+v", inc2.Result)
	}
	if inc2.Result.Session == nil {
		t.Fatalf("session telemetry missing: %+v", inc2.Result)
	}
	if resumes.Load() != 1 {
		t.Fatalf("resume ran %d times after session hit, want 1", resumes.Load())
	}

	// Different parameters do not alias the session.
	code, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", struct {
		Graph string `json:"graph"`
		SparsifyParams
	}{"g", SparsifyParams{SigmaSq: 80, Incremental: true}}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("submit incremental 3: %d %s", code, raw)
	}
	inc3 := waitJobHTTP(t, ts.URL, job.ID)
	if inc3.Result == nil || inc3.Result.SessionHit {
		t.Fatalf("different σ² must not hit the session: %+v", inc3.Result)
	}
	if resumes.Load() != 2 {
		t.Fatalf("resume ran %d times, want 2", resumes.Load())
	}
}

// waitJob polls a job until terminal.
func waitJobHTTP(t *testing.T, base, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var job Job
		code, raw := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil, &job)
		if code != http.StatusOK {
			t.Fatalf("GET job: %d %s", code, raw)
		}
		switch job.Status {
		case StatusDone:
			return job
		case StatusFailed, StatusCanceled:
			t.Fatalf("job %s: %s (%s)", id, job.Status, job.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return Job{}
}
