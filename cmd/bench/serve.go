package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync/atomic"
	"time"

	"graphspar"
	"graphspar/cmd/internal/runners"
	"graphspar/internal/graph"
	"graphspar/internal/obs"
	"graphspar/internal/service"
	"graphspar/internal/vecmath"
)

const (
	serveClients      = 2
	serveGraphSeed    = 1
	serveScheduleSeed = 1 // pinned for the reason streamScheduleSeed is
	// serveWarmups transactions per client run untimed in set-up: the first
	// installs the graph's session (the cold path), the rest let the
	// daemon's pools, result cache and connections settle.
	serveWarmups = 20
	pollEvery    = time.Millisecond
)

// txn is one pre-generated transaction of one client: the two request
// bodies that change per transaction and the graph hashes the server must
// report after each mutation.
type txn struct {
	streamBody  []byte
	binary      bool // odd transactions use the binary wire
	patchBody   []byte
	afterStream string
	afterPatch  string
	streamBatch []graphspar.Update
	patchBatch  []graphspar.Update
}

type serveClient struct {
	name    string
	http    *http.Client
	txns    []txn // the first serveWarmups are the warm-up's, op i runs [serveWarmups+i]
	initial *graph.Graph
	twin    *graph.Graph
	lastJob string // id of the latest finished full job
	// Reply counters for sessions.hit_share and service.shed_share.
	sessionReplies, sessionHits, requests, shed atomic.Int64
}

type serveInst struct {
	base string
	spec string
	stop func()
	cls  []*serveClient
	hash hasher
}

// bootServer starts the in-process daemon exactly as cmd/loadgen
// -selfserve does: the production runners, a fresh metrics registry, a
// loopback listener.
func bootServer() (base string, stop func(), err error) {
	cfg := runners.Config()
	cfg.Workers = workers
	cfg.Metrics = obs.NewRegistry()
	srv := service.NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		<-served
		srv.Queue().Shutdown(ctx)
		if m := srv.Sessions(); m != nil {
			m.Close(ctx)
		}
	}
	return "http://" + ln.Addr().String(), stop, nil
}

func setupServeTxn(ctx context.Context, _ uint64, ops int, quick bool) (instance, error) {
	in := &serveInst{spec: "grid:32x32:uniform"}
	if quick {
		in.spec = "grid:12x12:uniform"
	}
	local, err := graphspar.LoadGraph(in.spec, serveGraphSeed)
	if err != nil {
		return nil, err
	}
	in.hash.add([]byte(local.ContentHash()))
	for c := 0; c < serveClients; c++ {
		cl := &serveClient{
			name:    fmt.Sprintf("live-%d", c),
			http:    &http.Client{Transport: &http.Transport{}},
			initial: local,
		}
		if err := cl.schedule(local, serveScheduleSeed+uint64(c)*0x9e3779b97f4a7c15, ops+serveWarmups); err != nil {
			return nil, err
		}
		for _, t := range cl.txns {
			in.hash.add(t.streamBody)
			in.hash.add(t.patchBody)
		}
		in.cls = append(in.cls, cl)
	}
	if in.base, in.stop, err = bootServer(); err != nil {
		return nil, err
	}
	for c, cl := range in.cls {
		body, _ := json.Marshal(map[string]any{"name": cl.name, "spec": in.spec, "seed": serveGraphSeed})
		if _, err := in.do(ctx, cl, http.MethodPost, "/v1/graphs", "application/json", body, nil, http.StatusCreated); err != nil {
			in.close()
			return nil, fmt.Errorf("register %s: %w", cl.name, err)
		}
		for i := -serveWarmups; i < 0; i++ {
			if err := in.op(ctx, c, i, nil, 0); err != nil {
				in.close()
				return nil, fmt.Errorf("warm-up transaction: %w", err)
			}
		}
	}
	return in, nil
}

// schedule pre-generates n transactions against a local twin.
func (cl *serveClient) schedule(g *graph.Graph, seed uint64, n int) error {
	rng := vecmath.NewRNG(seed)
	cl.twin = g
	for k := 0; k < n; k++ {
		t := txn{binary: k%2 == 1}
		t.streamBatch = reweightBatch(cl.twin, rng, batchUpdates)
		var body bytes.Buffer
		write := graphspar.WriteEvents
		if t.binary {
			write = graphspar.WriteBinaryEvents
		}
		if err := write(&body, [][]graphspar.Update{t.streamBatch}); err != nil {
			return err
		}
		t.streamBody = body.Bytes()
		next, err := graphspar.ApplyUpdates(cl.twin, t.streamBatch)
		if err != nil {
			return err
		}
		t.afterStream = next.ContentHash()

		t.patchBatch = reweightBatch(next, rng, 1)
		u := t.patchBatch[0]
		t.patchBody, _ = json.Marshal(map[string]any{"updates": []map[string]any{{"op": "reweight", "u": u.U, "v": u.V, "w": u.W}}})
		if next, err = graphspar.ApplyUpdates(next, t.patchBatch); err != nil {
			return err
		}
		t.afterPatch = next.ContentHash()
		cl.twin = next
		cl.txns = append(cl.txns, t)
	}
	return nil
}

func (in *serveInst) clients() int         { return len(in.cls) }
func (in *serveInst) scheduleHash() string { return in.hash.String() }

func (in *serveInst) regenerate() error {
	_, err := graphspar.LoadGraph(in.spec, serveGraphSeed)
	return err
}

func (in *serveInst) close() {
	in.stop()
	for _, cl := range in.cls {
		cl.http.CloseIdleConnections()
	}
}

// do issues one request and insists on exactly the expected status (one
// of want); a 429 or 5xx is a failed op like any other unexpected status.
func (in *serveInst) do(ctx context.Context, cl *serveClient, method, path, contentType string, body []byte, out any, want ...int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, in.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	cl.requests.Add(1)
	resp, err := cl.http.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		cl.shed.Add(1)
	}
	if !slices.Contains(want, resp.StatusCode) {
		return raw, fmt.Errorf("%s %s: status %d, want %v: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return raw, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return raw, nil
}

// job submits and, unless the reply is already terminal, polls every
// pollEvery until the job is done.
func (in *serveInst) job(ctx context.Context, cl *serveClient, body string, wantSubmit ...int) (service.Job, error) {
	var job service.Job
	if _, err := in.do(ctx, cl, http.MethodPost, "/v1/jobs", "application/json", []byte(body), &job, wantSubmit...); err != nil {
		return job, err
	}
	tick := time.NewTimer(pollEvery)
	defer tick.Stop()
	for job.Status != service.StatusDone {
		if job.Status == service.StatusFailed || job.Status == service.StatusCanceled {
			return job, fmt.Errorf("job %s: %s %s", job.ID, job.Status, job.Error)
		}
		tick.Reset(pollEvery)
		select {
		case <-ctx.Done():
			return job, ctx.Err()
		case <-tick.C:
		}
		if _, err := in.do(ctx, cl, http.MethodGet, "/v1/jobs/"+job.ID, "", nil, &job, http.StatusOK); err != nil {
			return job, err
		}
	}
	if job.Result == nil || !job.Result.TargetMet || !job.Result.Connected {
		return job, fmt.Errorf("job %s: %w", job.ID, errNotMet)
	}
	return job, nil
}

// serveSteps are the stage-span names of one transaction, in order; they
// are also the stems of the service.*_p50_ms metrics.
var serveSteps = []string{"stream", "patch", "job_incremental", "job_miss", "job_hit", "read"}

// op runs one fixed transaction: stream batch → PATCH → incremental job →
// full job (miss) → identical full job (hit) → read.
func (in *serveInst) op(ctx context.Context, c, i int, tr *tracer, parent int) error {
	cl := in.cls[c]
	t := &cl.txns[serveWarmups+i]
	full := fmt.Sprintf(`{"graph":%q,"sigma2":%g}`, cl.name, sigma2)
	steps := []func() error{
		func() error { // stream
			ct := "application/x-ndjson"
			if t.binary {
				ct = graphspar.BinaryEventsContentType
			}
			raw, err := in.do(ctx, cl, http.MethodPost, fmt.Sprintf("/v1/graphs/%s/stream?sigma2=%g", cl.name, sigma2), ct, t.streamBody, nil, http.StatusOK)
			if err != nil {
				return err
			}
			return checkStreamReply(raw, t.afterStream)
		},
		func() error { // patch
			var rep struct {
				Hash    string `json:"hash"`
				Session string `json:"session"`
			}
			if _, err := in.do(ctx, cl, http.MethodPatch, "/v1/graphs/"+cl.name+"/edges", "application/json", t.patchBody, &rep, http.StatusOK); err != nil {
				return err
			}
			cl.sessionReplies.Add(1)
			if rep.Session == "hit" {
				cl.sessionHits.Add(1)
			}
			if rep.Hash != t.afterPatch {
				return fmt.Errorf("patch: server hash %s, twin %s", rep.Hash, t.afterPatch)
			}
			return nil
		},
		func() error { // job_incremental
			job, err := in.job(ctx, cl, fmt.Sprintf(`{"graph":%q,"sigma2":%g,"incremental":true}`, cl.name, sigma2), http.StatusAccepted)
			if err != nil {
				return err
			}
			cl.sessionReplies.Add(1)
			if job.Result.SessionHit {
				cl.sessionHits.Add(1)
			}
			return nil
		},
		func() error { // job_miss: the hash changed
			job, err := in.job(ctx, cl, full, http.StatusAccepted)
			if err != nil {
				return err
			}
			if job.GraphHash != t.afterPatch {
				return fmt.Errorf("job %s ran on hash %s, twin %s", job.ID, job.GraphHash, t.afterPatch)
			}
			cl.lastJob = job.ID
			return nil
		},
		func() error { // job_hit
			// Identical request: served synchronously from the result cache.
			// The daemon publishes a job as done a moment before it caches
			// the result, so a client this prompt now and then (about 1 in
			// 1 000) gets a second run instead; that reply is correct too,
			// and service.cache_hit_share counts how often it happens.
			job, err := in.job(ctx, cl, full, http.StatusOK, http.StatusAccepted)
			if err != nil {
				return err
			}
			if job.CacheHit != "" && job.CacheHit != service.CacheOutcome("exact") {
				return fmt.Errorf("job %s: cache outcome %q, want exact", job.ID, job.CacheHit)
			}
			return nil
		},
		func() error { // read
			var info struct {
				Hash string `json:"hash"`
			}
			if _, err := in.do(ctx, cl, http.MethodGet, "/v1/graphs/"+cl.name, "", nil, &info, http.StatusOK); err != nil {
				return err
			}
			if info.Hash != t.afterPatch {
				return fmt.Errorf("read: server hash %s, twin %s", info.Hash, t.afterPatch)
			}
			return nil
		},
	}
	for k, step := range steps {
		id := tr.begin(parent, serveSteps[k], "service")
		err := step()
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// checkStreamReply reads the NDJSON reply: every batch line applied with
// the target met, and the summary's graph hash equal to the twin's.
func checkStreamReply(raw []byte, wantHash string) error {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	done := false
	for sc.Scan() {
		var line struct {
			Applied   bool   `json:"applied"`
			TargetMet bool   `json:"target_met"`
			Error     string `json:"error"`
			Done      bool   `json:"done"`
			Graph     *struct {
				Hash string `json:"hash"`
			} `json:"graph"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("stream reply: %w", err)
		}
		switch {
		case line.Done:
			done = true
			if line.Graph == nil || line.Graph.Hash != wantHash {
				return fmt.Errorf("stream: server graph differs from twin %s", wantHash)
			}
		case !line.Applied:
			return fmt.Errorf("stream batch not applied: %s", line.Error)
		case !line.TargetMet:
			return fmt.Errorf("stream batch: %w", errNotMet)
		}
	}
	if !done {
		return errors.New("stream reply has no summary line")
	}
	return nil
}

func (in *serveInst) verify(int, int) error { return nil } // every reply is checked in op

// finish checks each server graph against its twin and downloads the last
// full job's sparsifier as the final P.
func (in *serveInst) finish(ctx context.Context) ([]pair, error) {
	var pairs []pair
	for _, cl := range in.cls {
		var info struct {
			Hash string `json:"hash"`
		}
		if _, err := in.do(ctx, cl, http.MethodGet, "/v1/graphs/"+cl.name, "", nil, &info, http.StatusOK); err != nil {
			return nil, err
		}
		if want := cl.twin.ContentHash(); info.Hash != want {
			return nil, fmt.Errorf("check: server graph %s hash %s differs from the locally mutated twin %s", cl.name, info.Hash, want)
		}
		var sp struct {
			N     int          `json:"n"`
			Edges []graph.Edge `json:"edges"`
		}
		if _, err := in.do(ctx, cl, http.MethodGet, "/v1/jobs/"+cl.lastJob+"/edges", "", nil, &sp, http.StatusOK); err != nil {
			return nil, err
		}
		p, err := graph.New(sp.N, sp.Edges)
		if err != nil {
			return nil, fmt.Errorf("check: served sparsifier: %w", err)
		}
		pairs = append(pairs, pair{cl.twin, p})
	}
	return pairs, nil
}

func (in *serveInst) layers(ctx context.Context, spans []Span, m map[string]float64) error {
	for _, step := range serveSteps {
		m["service."+step+"_p50_ms"] = spanMedianMs(spans, step)
	}
	var health struct {
		Cache    service.CacheStats `json:"cache"`
		Sessions struct {
			ResidentBytes int64 `json:"resident_bytes"`
		} `json:"sessions"`
	}
	if _, err := in.do(ctx, in.cls[0], http.MethodGet, "/v1/healthz", "", nil, &health, http.StatusOK); err != nil {
		return err
	}
	if n := health.Cache.Hits + health.Cache.CoarserHits + health.Cache.Misses; n > 0 {
		m["service.cache_hit_share"] = float64(health.Cache.Hits) / float64(n)
	}
	m["sessions.resident_mb"] = float64(health.Sessions.ResidentBytes) / 1e6
	var replies, hits, requests, shed int64
	for _, cl := range in.cls {
		replies += cl.sessionReplies.Load()
		hits += cl.sessionHits.Load()
		requests += cl.requests.Load()
		shed += cl.shed.Load()
	}
	m["sessions.hit_share"] = float64(hits) / float64(replies)
	m["service.shed_share"] = float64(shed) / float64(requests)

	// The same PATCH batches through a library Stream on a twin: what the
	// HTTP path adds on top of the maintenance work itself.
	cl := in.cls[0]
	sp, err := graphspar.New(graphspar.WithSigma2(sigma2), graphspar.WithWorkers(workers))
	if err != nil {
		return err
	}
	st, err := sp.Maintain(ctx, cl.initial)
	if err != nil {
		return err
	}
	var lib []float64
	for _, t := range cl.txns {
		if err := st.Apply(ctx, t.streamBatch); err != nil {
			return fmt.Errorf("layers: twin stream: %w", err)
		}
		t0 := time.Now()
		if err := st.Apply(ctx, t.patchBatch); err != nil {
			return fmt.Errorf("layers: twin stream: %w", err)
		}
		lib = append(lib, ms(time.Since(t0)))
	}
	m["service.patch_overhead_ms"] = m["service.patch_p50_ms"] - median(lib)
	return decodeProbe(schedBatches(cl.txns), m)
}

func schedBatches(txns []txn) [][]graphspar.Update {
	out := make([][]graphspar.Update, len(txns))
	for i, t := range txns {
		out[i] = t.streamBatch
	}
	return out
}
