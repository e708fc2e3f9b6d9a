package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphspar"
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

// newSessionServer builds the production HTTP stack with the Maintain
// runner wrapped in a build counter and the serial checker.
func newSessionServer(t *testing.T, builds *atomic.Int64, violations *atomic.Int64) (*service.Server, *httptest.Server) {
	t.Helper()
	cfg := service.Config{
		Workers:  2,
		Sparsify: runSparsify,
		Maintain: func(ctx context.Context, g *graph.Graph, p service.SparsifyParams) (sessions.Maintainer, error) {
			builds.Add(1)
			m, err := runMaintain(ctx, g, p)
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

// twinBatch derives a deterministic mixed batch from the twin's current
// state: gentle reweights of sparsifier edges, deletes of off-sparsifier
// edges that disconnect nothing, and one chord insert.
func twinBatch(t *testing.T, twin *graphspar.Stream, round int) []graphspar.Update {
	t.Helper()
	g, p := twin.Graph(), twin.Sparsifier()
	inP := make(map[[2]int]bool, p.M())
	for _, e := range p.Edges() {
		inP[[2]int{e.U, e.V}] = true
	}
	var batch []graphspar.Update
	reweights, deletes := 0, 0
	for i, e := range g.Edges() {
		if i%(round+2) != 0 {
			continue // a different slice of the edge list every round
		}
		switch k := [2]int{e.U, e.V}; {
		case inP[k] && reweights < 4:
			batch = append(batch, graphspar.Reweight(e.U, e.V, e.W*(1+0.01*float64(round+1))))
			reweights++
		case !inP[k] && deletes < 3:
			cand := append(append([]graphspar.Update(nil), batch...), graphspar.Delete(e.U, e.V))
			if _, err := graphspar.ApplyUpdates(g, cand); err != nil {
				continue // would disconnect; skip
			}
			batch = cand
			deletes++
		}
	}
	for v := g.N() - 1 - round; v > 0; v-- {
		cand := append(append([]graphspar.Update(nil), batch...), graphspar.Insert(round, v, 0.9))
		if _, err := graphspar.ApplyUpdates(g, cand); err == nil {
			batch = cand
			break
		}
	}
	if reweights == 0 || deletes == 0 || len(batch) != reweights+deletes+1 {
		t.Fatalf("round %d: could not build a mixed batch (reweights=%d deletes=%d of %d)", round, reweights, deletes, len(batch))
	}
	return batch
}

// TestWarmSessionSkipsResumeBitIdentical is the session layer's
// acceptance test: the maintainer the daemon holds is "the exact object a
// library user would hold". A facade twin — graphspar.New + Maintain +
// Apply, spelled the way a library user would — is fed the same batches
// the daemon gets over PATCH and the stream endpoint, and after the build
// and after every batch the incremental job's sparsifier content hash and
// its condition number equal the twin's bit for bit, on grid and SBM
// graphs, with the session built exactly once.
func TestWarmSessionSkipsResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full sparsification runs")
	}
	const sigmaSq = 100
	cases := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"grid", func() (*graph.Graph, error) { return gen.Grid2D(12, 12, gen.UniformWeights, 7) }},
		{"sbm", func() (*graph.Graph, error) {
			g, _, err := gen.SBM(4, 30, 0.25, 0.02, 9)
			return g, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			g, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			var builds atomic.Int64
			srv, ts := newSessionServer(t, &builds, nil)
			if _, err := srv.Registry().Register("g", tc.name, g); err != nil {
				t.Fatal(err)
			}
			lib, err := graphspar.New(graphspar.WithSigma2(sigmaSq))
			if err != nil {
				t.Fatal(err)
			}
			twin, err := lib.Maintain(ctx, g)
			if err != nil {
				t.Fatal(err)
			}

			// sameAsTwin runs an incremental job and holds it to the twin.
			sameAsTwin := func(when string, wantHit bool) {
				t.Helper()
				done := submitAndWait(t, ts.URL, submitReq{Graph: "g", SparsifyParams: service.SparsifyParams{SigmaSq: sigmaSq, Incremental: true}})
				job, err := srv.Queue().Get(done.ID)
				if err != nil {
					t.Fatal(err)
				}
				r := job.Result
				if r.SessionHit != wantHit || !r.TargetMet || r.Session == nil || builds.Load() != 1 {
					t.Fatalf("%s: session_hit=%v (want %v) builds=%d result=%+v", when, r.SessionHit, wantHit, builds.Load(), r)
				}
				if got, want := service.HashGraph(r.Sparsifier), service.HashGraph(twin.Sparsifier()); got != want {
					t.Fatalf("%s: daemon sparsifier (m=%d) differs from the library twin's (m=%d)", when, r.Sparsifier.M(), twin.Sparsifier().M())
				}
				if math.Float64bits(r.VerifiedCond) != math.Float64bits(twin.Cond()) {
					t.Fatalf("%s: daemon κ %v, library twin κ %v", when, r.VerifiedCond, twin.Cond())
				}
			}
			sameAsTwin("after the build", false)

			for round := 0; round < 4; round++ {
				batch := twinBatch(t, twin, round)
				if round%2 == 0 {
					events := make([]map[string]any, len(batch))
					for i, u := range batch {
						events[i] = map[string]any{"op": u.Op.String(), "u": u.U, "v": u.V, "w": u.W}
					}
					var patch struct {
						Session string `json:"session"`
					}
					code, raw := doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/g/edges", map[string]any{"updates": events}, &patch)
					if code != http.StatusOK || patch.Session != "hit" {
						t.Fatalf("round %d PATCH: %d %s", round, code, raw)
					}
				} else {
					var body bytes.Buffer
					if err := graphspar.WriteBinaryEvents(&body, [][]graphspar.Update{batch}); err != nil {
						t.Fatal(err)
					}
					resp, err := http.Post(fmt.Sprintf("%s/v1/graphs/g/stream?sigma2=%d", ts.URL, sigmaSq), graphspar.BinaryEventsContentType, &body)
					if err != nil {
						t.Fatal(err)
					}
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"applied":true`) || !strings.Contains(string(raw), `"session":"hit"`) {
						t.Fatalf("round %d stream: %d %s", round, resp.StatusCode, raw)
					}
				}
				if err := twin.Apply(ctx, batch); err != nil {
					t.Fatalf("round %d: twin rejected the batch the daemon took: %v", round, err)
				}
				sameAsTwin(fmt.Sprintf("after batch %d", round+1), true)
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
	var builds, violations atomic.Int64
	srv, ts := newSessionServer(t, &builds, &violations)
	g, err := gen.Grid2D(10, 10, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Register("g", "grid10", g); err != nil {
		t.Fatal(err)
	}

	// Seed the session.
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
