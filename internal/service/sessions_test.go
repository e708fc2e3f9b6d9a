package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
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

// sessionTestConfig wires stub Sparsify/Maintain runners; maintains,
// when given, counts maintainer builds.
func sessionTestConfig(maintains *atomic.Int64) Config {
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
	ts := newTestServer(t, sessionTestConfig(&maintains), nil)
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
	ts := newTestServer(t, sessionTestConfig(nil), nil)
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
	ts := newTestServer(t, sessionTestConfig(nil), nil)
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
	ts := newTestServer(t, sessionTestConfig(nil), nil)
	registerSpec(t, ts.URL, "g", "grid:3x3")
	// A maintainer can honour neither a job-only parameter nor a typo, so
	// neither may be dropped silently; an infinite target is no target.
	for _, query := range []string{
		"", // missing sigma2
		"?sigma2=Inf",
		"?sigma2=50&mode=multilevel",
		"?sigma2=50&max_edges=500",
		"?sigma2=50&shard=4",
		"?sigma2=50&shards=2&partition=bfs", // the retired bisector key
	} {
		if code, _ := streamLines(t, ts.URL, "g", query, "= 1 2 2\n"); code != http.StatusBadRequest {
			t.Errorf("stream%s: %d, want 400", query, code)
		}
	}
	// The retired backbone key is an unknown key like any other: a 400
	// that names it.
	resp, err := http.Post(ts.URL+"/v1/graphs/g/stream?sigma2=50&tree=maxweight", "application/x-ndjson", strings.NewReader("= 1 2 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(raw.String(), `unknown query parameter \"tree\"`) {
		t.Errorf("stream?tree=: %d %s, want 400 naming \"tree\"", resp.StatusCode, raw.String())
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
	ts := newTestServer(t, sessionTestConfig(nil), nil)
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

// submitJobHTTP submits a job that must queue (202) and polls it to done.
func submitJobHTTP(t *testing.T, base, graphName string, p SparsifyParams) Job {
	t.Helper()
	var job Job
	code, raw := doJSON(t, http.MethodPost, base+"/v1/jobs", submitRequest{Graph: graphName, SparsifyParams: p}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("submit %+v: %d %s", p, code, raw)
	}
	return waitJobHTTP(t, base, job.ID)
}

func TestIncrementalJobServedFromSession(t *testing.T) {
	var builds atomic.Int64
	ts := newTestServer(t, sessionTestConfig(&builds), nil)
	registerSpec(t, ts.URL, "g", "grid:6x6")
	inc := SparsifyParams{SigmaSq: 50, Incremental: true}

	if r := submitJobHTTP(t, ts.URL, "g", inc).Result; r == nil || !r.Incremental || r.SessionHit {
		t.Fatalf("first incremental: %+v", r)
	}
	// Served from the resident session: no second build, telemetry rides
	// along, and the per-job work counters are zero — the job did none.
	r := submitJobHTTP(t, ts.URL, "g", inc).Result
	if r == nil || !r.SessionHit || r.Session == nil || r.Rounds != 0 || r.Refilters != 0 || r.Rebuilds != 0 {
		t.Fatalf("second incremental must be a session hit: %+v", r)
	}
	if builds.Load() != 1 {
		t.Fatalf("maintainer built %d times after a session hit, want 1", builds.Load())
	}
	// Different parameters do not alias the session.
	inc.SigmaSq = 80
	if r := submitJobHTTP(t, ts.URL, "g", inc).Result; r == nil || r.SessionHit {
		t.Fatalf("different σ² must not hit the session: %+v", r)
	}
	if builds.Load() != 2 {
		t.Fatalf("maintainer built %d times, want 2", builds.Load())
	}
}

// TestIncrementalJobBuildsThenHits walks the one route end to end: an
// incremental job on a cold graph builds the session and leaves it
// resident, so the PATCH and the job after it are hits; with sessions off
// the same request completes as a plain uncached run.
func TestIncrementalJobBuildsThenHits(t *testing.T) {
	var builds atomic.Int64
	ts := newTestServer(t, sessionTestConfig(&builds), nil)
	registerSpec(t, ts.URL, "g", "grid:6x6")
	inc := SparsifyParams{SigmaSq: 50, Incremental: true}

	first := submitJobHTTP(t, ts.URL, "g", inc)
	if r := first.Result; builds.Load() != 1 || !r.Incremental || r.SessionHit || r.Session == nil {
		t.Fatalf("cold incremental job: builds=%d result=%+v", builds.Load(), r)
	}
	var patch patchResponse
	code, raw := doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/g/edges", patchRequest{
		Updates: []dynamic.EventJSON{{Op: "reweight", U: 0, V: 1, W: 2}},
	}, &patch)
	if code != http.StatusOK || patch.Session != "hit" {
		t.Fatalf("PATCH after the job: %d %s", code, raw)
	}
	second := submitJobHTTP(t, ts.URL, "g", inc)
	if r := second.Result; builds.Load() != 1 || !r.SessionHit || r.Session.BatchesApplied != 1 {
		t.Fatalf("job after the PATCH: builds=%d result=%+v", builds.Load(), r)
	}
	if second.GraphHash != patch.Hash {
		t.Fatalf("job ran on hash %s, PATCH left %s", second.GraphHash, patch.Hash)
	}

	var fullCalls atomic.Int64
	cfg := sessionTestConfig(&builds)
	cfg.SessionMax = -1
	srv, off := startTestServer(t, cfg, &fullCalls)
	registerSpec(t, off.URL, "g", "grid:6x6")
	if r := submitJobHTTP(t, off.URL, "g", inc).Result; !r.Incremental || r.SessionHit || r.Session != nil {
		t.Fatalf("sessions off: %+v", r)
	}
	if builds.Load() != 1 || fullCalls.Load() != 1 || srv.cache.Len() != 0 {
		t.Fatalf("sessions off: builds=%d full=%d cached=%d, want 1/1/0", builds.Load(), fullCalls.Load(), srv.cache.Len())
	}
}

// TestIncrementalSupersededSnapshotRunsPlain queues an incremental job
// across a PATCH: its snapshot is no longer the registry's graph, so it
// runs from scratch on the snapshot and leaves the newer session alone.
func TestIncrementalSupersededSnapshotRunsPlain(t *testing.T) {
	var builds atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	cfg := sessionTestConfig(&builds)
	stub := cfg.Sparsify
	var snapshotHash atomic.Value
	cfg.Sparsify = func(ctx context.Context, g *graph.Graph, p SparsifyParams) (*JobResult, error) {
		if p.SigmaSq == 999 { // the blocker holding the only worker
			close(started)
			<-release
		}
		if p.Incremental {
			snapshotHash.Store(HashGraph(g))
		}
		return stub(ctx, g, p)
	}
	srv, ts := startTestServer(t, cfg, nil)
	registerSpec(t, ts.URL, "g", "grid:6x6")
	if code, _ := streamLines(t, ts.URL, "g", "?sigma2=50", "= 0 1 3\n"); code != http.StatusOK {
		t.Fatalf("stream install: %d", code)
	}

	var blocker, queued Job
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", submitRequest{Graph: "g", SparsifyParams: SparsifyParams{SigmaSq: 999}}, &blocker); code != http.StatusAccepted {
		t.Fatalf("blocker: %d %s", code, raw)
	}
	<-started
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", submitRequest{Graph: "g", SparsifyParams: SparsifyParams{SigmaSq: 50, Incremental: true}}, &queued); code != http.StatusAccepted {
		t.Fatalf("queued incremental: %d %s", code, raw)
	}
	var patch patchResponse
	if code, raw := doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/g/edges", patchRequest{
		Updates: []dynamic.EventJSON{{Op: "reweight", U: 1, V: 2, W: 4}},
	}, &patch); code != http.StatusOK || patch.Session != "hit" {
		t.Fatalf("PATCH: %d %s", code, raw)
	}
	close(release)

	done := waitJobHTTP(t, ts.URL, queued.ID)
	if r := done.Result; !r.Incremental || r.SessionHit || r.Session != nil {
		t.Fatalf("superseded job must run plain: %+v", r)
	}
	if got := snapshotHash.Load(); got != queued.GraphHash || got == patch.Hash {
		t.Fatalf("plain run saw hash %v, want the job's snapshot %s (registry is at %s)", got, queued.GraphHash, patch.Hash)
	}
	if st := srv.sessions.Stats(); st.Installs != 1 || builds.Load() != 1 {
		t.Fatalf("session was rebuilt: installs=%d builds=%d, want 1/1", st.Installs, builds.Load())
	}
	if srv.sessions.Get("g", patch.Hash, "") == nil {
		t.Fatal("the newer session is gone or no longer at the registry's hash")
	}
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("cache holds %d entries, want none (one job is incremental, the other's hash was PATCHed away)", n)
	}
}

// TestSessionBuiltOnceUnderRacingTraffic races incremental jobs, PATCHes
// and a stream on one cold graph (CI runs this under -race -count=20).
// The route must never build two maintainers for the graph at once, must
// rebuild only when a cold PATCH moved the registry under a build, must
// lose no update, and must end with the session at the registry's hash.
func TestSessionBuiltOnceUnderRacingTraffic(t *testing.T) {
	var builds, inBuild, overlaps atomic.Int64
	// The first build stays in flight until a PATCH has answered — cold,
	// since nothing is resident yet — so the session it installs is stale
	// on arrival and the retry path runs every time, not one run in many.
	patched := make(chan struct{})
	var patchedOnce sync.Once
	cfg := sessionTestConfig(nil)
	cfg.Maintain = func(ctx context.Context, g *graph.Graph, p SparsifyParams) (sessions.Maintainer, error) {
		if inBuild.Add(1) > 1 {
			overlaps.Add(1)
		}
		defer inBuild.Add(-1)
		if builds.Add(1) == 1 {
			<-patched
		}
		return &stubMaintainer{g: g}, nil
	}
	srv, ts := startTestServer(t, cfg, nil)
	registerSpec(t, ts.URL, "g", "grid:6x6")
	entry, err := srv.registry.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	g := entry.Graph

	// Every writer reweights its own edges, so no batch can be rejected
	// and the final weight of each is known whatever the interleaving.
	want := map[[2]int]float64{}
	reweight := func(i int) (int, int, float64) {
		e := g.Edge(i)
		want[[2]int{e.U, e.V}] = e.W + float64(i+1)
		return e.U, e.V, e.W + float64(i+1)
	}
	const jobs, patches, batches = 8, 3, 2 // patches+1 <= patchRetries: see the builds bound below
	var streamBody strings.Builder
	for i := 0; i < batches; i++ {
		u, v, w := reweight(i)
		fmt.Fprintf(&streamBody, "= %d %d %g\ncommit\n", u, v, w)
	}
	patchBodies := make([]patchRequest, patches)
	for i := range patchBodies {
		u, v, w := reweight(batches + i)
		patchBodies[i] = patchRequest{Updates: []dynamic.EventJSON{{Op: "reweight", U: u, V: v, W: w}}}
	}

	var wg sync.WaitGroup
	var coldPatches atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/v1/graphs/g/stream?sigma2=50", "application/x-ndjson", strings.NewReader(streamBody.String()))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		var applied int
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var line streamLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Errorf("bad line %q: %v", sc.Text(), err)
				return
			}
			if line.Applied && line.TargetMet {
				applied++
			} else if !line.Done {
				t.Errorf("stream batch not certified: %s", sc.Text())
			}
		}
		if applied != batches {
			t.Errorf("stream applied %d batches, want %d", applied, batches)
		}
	}()
	for i := range patchBodies {
		wg.Add(1)
		go func(body patchRequest) {
			defer wg.Done()
			raw, _ := json.Marshal(body)
			req, _ := http.NewRequest(http.MethodPatch, ts.URL+"/v1/graphs/g/edges", bytes.NewReader(raw))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var rep patchResponse
			if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("PATCH: %d %v", resp.StatusCode, err)
				return
			}
			if rep.Session == "miss" {
				coldPatches.Add(1)
			}
			patchedOnce.Do(func() { close(patched) })
		}(patchBodies[i])
	}
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job, err := srv.queue.Submit(entry, SparsifyParams{SigmaSq: 50, T: 2, Seed: 1, Incremental: true})
			for err == nil && job.Status != StatusDone && job.Status != StatusFailed {
				runtime.Gosched()
				job, err = srv.queue.Get(job.ID)
			}
			if err != nil || job.Status != StatusDone || !job.Result.TargetMet {
				t.Errorf("incremental job: %+v, %v", job, err)
			}
		}()
	}
	wg.Wait()

	if overlaps.Load() != 0 {
		t.Fatalf("maintainer builds overlapped %d times", overlaps.Load())
	}
	t.Logf("builds=%d cold PATCHes=%d", builds.Load(), coldPatches.Load())
	if b, cold := builds.Load(), coldPatches.Load(); b > 1+cold || b > patchRetries {
		t.Fatalf("%d builds for %d cold PATCHes, want at most one more (and at most %d)", b, cold, patchRetries)
	}
	// One more job leaves a session resident whatever happened last.
	final := submitJobHTTP(t, ts.URL, "g", SparsifyParams{SigmaSq: 50, Incremental: true})
	if !final.Result.TargetMet || final.Result.Session == nil {
		t.Fatalf("final job: %+v", final.Result)
	}
	now, err := srv.registry.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if srv.sessions.Get("g", now.Hash, "") == nil {
		t.Fatal("session hash differs from the registry's at the end")
	}
	for _, e := range now.Graph.Edges() {
		if w, ok := want[[2]int{e.U, e.V}]; ok && e.W != w {
			t.Errorf("edge (%d,%d) has weight %g, want %g: an update was lost", e.U, e.V, e.W, w)
		}
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
