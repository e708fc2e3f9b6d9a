package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphspar/internal/dynamic"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/service"
	"graphspar/internal/sessions"
)

// serialChecker wraps a production maintainer and trips `violations` if
// the session layer ever lets two requests touch it concurrently — the
// single-writer actor-loop guarantee, checked from outside the sessions
// package against the real facade Stream.
type serialChecker struct {
	m          sessions.Maintainer
	busy       atomic.Int32
	violations *atomic.Int64
}

func (c *serialChecker) enter() func() {
	if !c.busy.CompareAndSwap(0, 1) {
		c.violations.Add(1)
	}
	return func() { c.busy.Store(0) }
}

func (c *serialChecker) Apply(ctx context.Context, batch []dynamic.Update) error {
	defer c.enter()()
	return c.m.Apply(ctx, batch)
}
func (c *serialChecker) Rebuild(ctx context.Context) error {
	defer c.enter()()
	return c.m.Rebuild(ctx)
}
func (c *serialChecker) Graph() *graph.Graph      { defer c.enter()(); return c.m.Graph() }
func (c *serialChecker) Sparsifier() *graph.Graph { defer c.enter()(); return c.m.Sparsifier() }
func (c *serialChecker) Cond() float64            { defer c.enter()(); return c.m.Cond() }
func (c *serialChecker) TargetMet() bool          { defer c.enter()(); return c.m.TargetMet() }
func (c *serialChecker) Stats() dynamic.Stats     { defer c.enter()(); return c.m.Stats() }
func (c *serialChecker) ResidentBytes() int64     { defer c.enter()(); return c.m.ResidentBytes() }

// newSessionServer builds the production HTTP stack with session runners
// wrapped in counters and the serial checker.
func newSessionServer(t *testing.T, resumes *atomic.Int64, violations *atomic.Int64) (*service.Server, *httptest.Server) {
	t.Helper()
	cfg := service.Config{
		Workers:  2,
		Sparsify: runSparsify,
		Maintain: func(ctx context.Context, g *graph.Graph, p service.SparsifyParams) (sessions.Maintainer, error) {
			m, err := runMaintain(ctx, g, p)
			if err != nil || violations == nil {
				return m, err
			}
			return &serialChecker{m: m, violations: violations}, nil
		},
		Resume: func(ctx context.Context, g, warm *graph.Graph, p service.SparsifyParams) (sessions.Maintainer, error) {
			if resumes != nil {
				resumes.Add(1)
			}
			m, err := runResume(ctx, g, warm, p)
			if err != nil || violations == nil {
				return m, err
			}
			return &serialChecker{m: m, violations: violations}, nil
		},
	}
	srv := service.NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = srv.Queue().Shutdown(ctx)
		if m := srv.Sessions(); m != nil {
			_ = m.Close(ctx)
		}
	})
	return srv, ts
}

// jobSparsifier fetches a finished job's result graph from the
// in-process queue (the HTTP job view omits it: json:"-").
func jobSparsifier(t *testing.T, srv *service.Server, id string) *graph.Graph {
	t.Helper()
	job, err := srv.Queue().Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if job.Result == nil || job.Result.Sparsifier == nil {
		t.Fatalf("job %s holds no sparsifier", id)
	}
	return job.Result.Sparsifier
}

func submitAndWait(t *testing.T, base string, req submitReq) service.Job {
	t.Helper()
	var job service.Job
	code, raw := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &job)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, raw)
	}
	done := pollJob(t, base, job.ID)
	if done.Status != service.StatusDone {
		t.Fatalf("job %s: %s (%s)", job.ID, done.Status, done.Error)
	}
	return done
}

// TestWarmSessionSkipsResumeBitIdentical is the tentpole acceptance
// test: after PATCH traffic lands on a warm session, an incremental job
// is served from the resident maintainer — the Resume runner never runs
// (counter-verified) — and its sparsifier is bit-identical to what the
// cold path (dynamic.Resume from the prior job's sparsifier against the
// current graph) would have produced, on both grid and SBM graphs.
func TestWarmSessionSkipsResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full sparsification runs")
	}
	const sigmaSq = 100
	cases := []struct {
		name     string
		register func(t *testing.T, srv *service.Server) // puts graph "g" in the registry
	}{
		{"grid", func(t *testing.T, srv *service.Server) {
			g, err := gen.Grid2D(12, 12, gen.UniformWeights, 7)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Registry().Register("g", "grid12", g); err != nil {
				t.Fatal(err)
			}
		}},
		{"sbm", func(t *testing.T, srv *service.Server) {
			g, _, err := gen.SBM(4, 30, 0.25, 0.02, 9)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.RequireConnected(); err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Registry().Register("g", "sbm", g); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resumes atomic.Int64
			srv, ts := newSessionServer(t, &resumes, nil)
			tc.register(t, srv)

			full := submitAndWait(t, ts.URL, submitReq{Graph: "g", SparsifyParams: service.SparsifyParams{SigmaSq: sigmaSq}})

			// Cold PATCH (no session yet): mutate a couple of weights.
			entry, err := srv.Registry().Get("g")
			if err != nil {
				t.Fatal(err)
			}
			e0 := entry.Graph.Edge(0)
			code, raw := doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/g/edges", map[string]any{
				"updates": []map[string]any{{"op": "reweight", "u": e0.U, "v": e0.V, "w": e0.W * 1.5}},
			}, nil)
			if code != http.StatusOK {
				t.Fatalf("cold PATCH: %d %s", code, raw)
			}

			// First incremental job: cold Resume builds + installs the session.
			inc1 := submitAndWait(t, ts.URL, submitReq{Graph: "g", SparsifyParams: service.SparsifyParams{SigmaSq: sigmaSq, Incremental: true}})
			if inc1.Result.SessionHit || inc1.Result.WarmSource != full.ID {
				t.Fatalf("first incremental: %+v", inc1.Result)
			}
			if got := resumes.Load(); got != 1 {
				t.Fatalf("resume runner ran %d times, want 1", got)
			}

			// Warm PATCH through the session: gentle reweights of sparsifier
			// edges plus deletes of redundant (off-sparsifier, non-bridge)
			// edges — updates for which the warm Apply and a cold Resume
			// provably produce the same sparsifier edge set.
			p1 := jobSparsifier(t, srv, inc1.ID)
			inP1 := make(map[[2]int]bool, p1.M())
			for _, e := range p1.Edges() {
				inP1[[2]int{e.U, e.V}] = true
			}
			entry, err = srv.Registry().Get("g")
			if err != nil {
				t.Fatal(err)
			}
			g1 := entry.Graph
			var updates []map[string]any
			var trial []dynamic.Update
			reweights, deletes := 0, 0
			for _, e := range g1.Edges() {
				k := [2]int{e.U, e.V}
				switch {
				case inP1[k] && reweights < 4:
					updates = append(updates, map[string]any{"op": "reweight", "u": e.U, "v": e.V, "w": e.W * 1.02})
					trial = append(trial, dynamic.Reweight(e.U, e.V, e.W*1.02))
					reweights++
				case !inP1[k] && deletes < 4:
					cand := append(append([]dynamic.Update(nil), trial...), dynamic.Delete(e.U, e.V))
					if _, err := dynamic.ApplyToGraph(g1, cand); err != nil {
						continue // would disconnect; skip
					}
					updates = append(updates, map[string]any{"op": "delete", "u": e.U, "v": e.V})
					trial = cand
					deletes++
				}
				if reweights == 4 && deletes == 4 {
					break
				}
			}
			if reweights == 0 || deletes == 0 {
				t.Fatalf("could not build a mixed batch (reweights=%d deletes=%d)", reweights, deletes)
			}
			var patch struct {
				Session string `json:"session"`
			}
			code, raw = doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/g/edges",
				map[string]any{"updates": updates}, &patch)
			if code != http.StatusOK {
				t.Fatalf("warm PATCH: %d %s", code, raw)
			}
			if patch.Session != "hit" {
				t.Fatalf("warm PATCH session = %q, want hit", patch.Session)
			}

			// Second incremental job: served by the session. The Resume
			// runner must NOT run again — the reconcile was skipped.
			inc2 := submitAndWait(t, ts.URL, submitReq{Graph: "g", SparsifyParams: service.SparsifyParams{SigmaSq: sigmaSq, Incremental: true}})
			if !inc2.Result.SessionHit {
				t.Fatalf("second incremental must be a session hit: %+v", inc2.Result)
			}
			if got := resumes.Load(); got != 1 {
				t.Fatalf("resume runner ran %d times after warm PATCH, want still 1 (reconcile skipped)", got)
			}
			if !inc2.Result.TargetMet || inc2.Result.VerifiedCond > sigmaSq {
				t.Fatalf("warm certificate: %+v", inc2.Result)
			}

			// Bit-identical to the cold path: run the per-request Resume
			// (prior job's sparsifier reconciled against the current graph —
			// exactly what this job costs without a session) and compare
			// content hashes.
			entry, err = srv.Registry().Get("g")
			if err != nil {
				t.Fatal(err)
			}
			ref, err := runResume(context.Background(), entry.Graph, p1,
				canon(t, service.SparsifyParams{SigmaSq: sigmaSq, Incremental: true}))
			if err != nil {
				t.Fatal(err)
			}
			warmSpars := jobSparsifier(t, srv, inc2.ID)
			warmHash := service.HashGraph(warmSpars)
			coldHash := service.HashGraph(ref.Sparsifier())
			if warmHash != coldHash {
				t.Fatalf("session sparsifier (m=%d) differs from cold Resume result (m=%d):\nwarm %s\ncold %s",
					warmSpars.M(), ref.Sparsifier().M(), warmHash, coldHash)
			}
		})
	}
}

// TestConcurrentSessionTraffic runs parallel PATCHes, a stream upload
// and from-scratch jobs against one graph with a single session under
// the hood (CI runs this package with -race). Asserts: the maintainer is
// never entered concurrently, every applied stream batch reports a
// verified certificate within σ², and the stored graph survives intact.
func TestConcurrentSessionTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("full sparsification runs")
	}
	const sigmaSq = 100
	var resumes, violations atomic.Int64
	srv, ts := newSessionServer(t, &resumes, &violations)
	g, err := gen.Grid2D(10, 10, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Register("g", "grid10", g); err != nil {
		t.Fatal(err)
	}

	// Seed a warm source and the session.
	submitAndWait(t, ts.URL, submitReq{Graph: "g", SparsifyParams: service.SparsifyParams{SigmaSq: sigmaSq}})
	submitAndWait(t, ts.URL, submitReq{Graph: "g", SparsifyParams: service.SparsifyParams{SigmaSq: sigmaSq, Incremental: true}})

	var wg sync.WaitGroup

	// Stream: several single-update reweight batches on fixed edges.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var body strings.Builder
		for i := 0; i < 6; i++ {
			e := g.Edge(i * 7)
			fmt.Fprintf(&body, "= %d %d %g\ncommit\n", e.U, e.V, e.W*(1+0.01*float64(i+1)))
		}
		resp, err := http.Post(ts.URL+"/v1/graphs/g/stream?sigma2=100", "application/x-ndjson", strings.NewReader(body.String()))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("stream: %d", resp.StatusCode)
			return
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var line struct {
				Applied   bool    `json:"applied"`
				Rejected  bool    `json:"rejected"`
				Cond      float64 `json:"condition_number"`
				TargetMet bool    `json:"target_met"`
				Error     string  `json:"error"`
				Done      bool    `json:"done"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Errorf("bad line %q: %v", sc.Text(), err)
				return
			}
			if line.Applied && (!line.TargetMet || line.Cond > sigmaSq) {
				t.Errorf("stream batch lost the certificate: %+v", line)
			}
		}
	}()

	// PATCH hammering: reweights on a disjoint fixed edge set. Accepted
	// or concurrency-conflicted are both fine; anything else is a bug.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			e := g.Edge(i*3 + 1)
			code, raw := doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/g/edges", map[string]any{
				"updates": []map[string]any{{"op": "reweight", "u": e.U, "v": e.V, "w": e.W * (1 + 0.005*float64(i+1))}},
			}, nil)
			if code != http.StatusOK && code != http.StatusConflict {
				t.Errorf("PATCH %d: %d %s", i, code, raw)
				return
			}
		}
	}()

	// From-scratch jobs keep the queue busy against the same graph.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			submitAndWait(t, ts.URL, submitReq{Graph: "g", SparsifyParams: service.SparsifyParams{SigmaSq: sigmaSq + float64(i)}})
		}
	}()

	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("maintainer entered concurrently %d times", violations.Load())
	}

	// The graph survived all interleavings connected, and a final
	// incremental job still certifies.
	entry, err := srv.Registry().Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if !entry.Graph.IsConnected() {
		t.Fatal("stored graph disconnected after concurrent traffic")
	}
	final := submitAndWait(t, ts.URL, submitReq{Graph: "g", SparsifyParams: service.SparsifyParams{SigmaSq: sigmaSq, Incremental: true}})
	if !final.Result.TargetMet || final.Result.VerifiedCond > sigmaSq {
		t.Fatalf("final certificate: %+v", final.Result)
	}
}
