// Command loadgen drives a running sparsifyd server with a closed-loop
// mix of upload, job, PATCH, stream and read traffic and reports per-op
// latency percentiles and throughput. It exists to answer "what does the
// serving layer do under load" with numbers, and doubles as the CI smoke
// benchmark behind BENCH_serve.json: it exits non-zero when any op failed
// (a 429 from admission control is a rejection, not a failure), so a
// client/server wire drift that breaks even a few requests fails the run.
//
// Each of -c workers loops until -duration elapses: pick an op class by
// the -mix weights, run it against the server, record the latency. The
// loop is closed — a worker issues its next op only after the previous
// one finishes — so concurrency is bounded and the server is never
// swamped beyond -c in-flight requests (jobs additionally occupy the
// server's own worker pool).
//
// PATCH and stream ops send reweights of edges the generator spec is
// known to contain: loadgen regenerates the same graph locally from
// -graph/-seed, so every mutation is valid by construction and the
// registered graph stays connected for the whole run. The same -seed
// also derives every worker's op-mix RNG, so a run is reproducible from
// its flags alone; the report echoes the seed.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8080 -duration 30s -c 8
//	loadgen -selfserve -duration 10s -out BENCH_serve.json
//	loadgen -selfserve -graph grid:40x40 -mode multilevel -mix job=1,read=2
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"graphspar/cmd/internal/runners"
	"graphspar/internal/cli"
	"graphspar/internal/dynamic"
	"graphspar/internal/graph"
	"graphspar/internal/obs"
	"graphspar/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", "", "base URL of a running server, e.g. http://127.0.0.1:8080")
		selfserve = flag.Bool("selfserve", false, "boot an in-process server on 127.0.0.1:0 and drive that")
		duration  = flag.Duration("duration", 10*time.Second, "how long to generate load")
		conc      = flag.Int("c", 8, "closed-loop worker goroutines")
		spec      = flag.String("graph", "grid:24x24", "generator spec for the target graph; "+cli.SpecHelp)
		seed      = flag.Uint64("seed", 1, "generator seed (must match the server's view of the graph)")
		sigma2    = flag.Float64("sigma2", 50, "similarity threshold for jobs and streams")
		mode      = flag.String("mode", "", "execution mode for job ops: single | sharded | multilevel (empty = single); jobs report as op class job:<mode>")
		mix       = flag.String("mix", "upload=1,job=2,patch=4,stream=2,read=6", "op-class weights")
		wire      = flag.String("wire", "text", "stream wire format: text (NDJSON) | binary (application/x-graphspar-events)")
		out       = flag.String("out", "", "write a BENCH_serve.json-shaped report to this path")
		serveWork = flag.Int("serve-workers", 4, "job workers for -selfserve")
	)
	flag.Parse()

	if *wire != "text" && *wire != "binary" {
		fatal(fmt.Errorf("bad -wire %q (want text or binary)", *wire))
	}

	ops, err := parseMix(*mix)
	if err != nil {
		fatal(err)
	}
	// Canonicalize the job-op knobs up front with the server's own Canon,
	// so a bad flag fails fast instead of turning every job op into an
	// HTTP 400; every job op then submits this canonical form.
	jobParams := service.SparsifyParams{SigmaSq: *sigma2, Mode: *mode}
	if err := jobParams.Canon(); err != nil {
		fatal(fmt.Errorf("-mode: %w", err))
	}
	local, err := cli.LoadGraph(*spec, *seed)
	if err != nil {
		fatal(fmt.Errorf("generate %s locally: %w", *spec, err))
	}
	if err := local.RequireConnected(); err != nil {
		fatal(fmt.Errorf("graph %s: %w", *spec, err))
	}

	base := *addr
	var shutdown func()
	if *selfserve {
		base, shutdown, err = bootServer(*serveWork)
		if err != nil {
			fatal(err)
		}
		defer shutdown()
		log.Printf("self-serve server on %s (workers=%d)", base, *serveWork)
	}
	if base == "" {
		fatal(errors.New("need -addr or -selfserve"))
	}

	c := &client{
		base:   strings.TrimSuffix(base, "/"),
		http:   &http.Client{Timeout: 2 * time.Minute},
		name:   "loadgen",
		spec:   *spec,
		seed:   *seed,
		sigma2: *sigma2,
		params: jobParams,
		mode:   *mode,
		wire:   *wire,
		edges:  local.Edges(),
	}
	if err := c.register(); err != nil {
		fatal(err)
	}

	log.Printf("driving %s: graph=%s (|V|=%d |E|=%d) c=%d duration=%s mix=%s",
		c.base, *spec, local.N(), local.M(), *conc, *duration, *mix)

	agg := runLoad(c, ops, *conc, *duration, *seed)
	report := buildReport(agg, *spec, *conc, *duration, *seed)
	printReport(report)
	if *out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		log.Printf("wrote %s", *out)
	}
	failed := 0
	for _, op := range report.Ops {
		failed += op.Errors
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d ops failed (429 rejects not counted); see the errors column above", failed))
	}
}

// opWeight is one entry of the -mix flag.
type opWeight struct {
	name   string
	weight int
}

func parseMix(s string) ([]opWeight, error) {
	known := map[string]bool{"upload": true, "job": true, "patch": true, "stream": true, "read": true}
	var ops []opWeight
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || !known[name] {
			return nil, fmt.Errorf("bad -mix entry %q (want op=weight with op in upload|job|patch|stream|read)", part)
		}
		var w int
		if _, err := fmt.Sscanf(val, "%d", &w); err != nil || w < 0 {
			return nil, fmt.Errorf("bad -mix weight %q", part)
		}
		if w > 0 {
			ops = append(ops, opWeight{name, w})
		}
	}
	if len(ops) == 0 {
		return nil, errors.New("-mix selects no ops")
	}
	return ops, nil
}

// pick returns an op name drawn from the weighted mix.
func pick(ops []opWeight, rng *rand.Rand) string {
	total := 0
	for _, o := range ops {
		total += o.weight
	}
	n := rng.Intn(total)
	for _, o := range ops {
		if n < o.weight {
			return o.name
		}
		n -= o.weight
	}
	return ops[len(ops)-1].name
}

// sampleCap bounds the latency samples kept per worker per op class.
// Long soak runs used to grow the sample slices without bound (hours of
// load ⇒ hundreds of MB and an eventual OOM on the generator side);
// reservoir sampling keeps memory flat while the kept samples remain a
// uniform draw from the full run, so the reported percentiles are
// unbiased estimates rather than exact order statistics.
const sampleCap = 4096

// opStats accumulates one worker's results for one op class.
type opStats struct {
	count    int
	errors   int
	rejected int // 429s from admission control; not errors
	lastErr  string
	samples  []float64 // latency, ms; uniform reservoir of up to sampleCap
}

// rejectedError marks a request the server shed with 429. The worker
// honors the advertised Retry-After (capped so a soak never stalls on a
// hostile header) and the op counts as a rejection, not an error —
// shedding under overload is the admission controller doing its job.
type rejectedError struct{ retryAfter time.Duration }

func (e rejectedError) Error() string {
	return fmt.Sprintf("shed with 429 (retry after %s)", e.retryAfter)
}

// retryAfterOf reads the Retry-After seconds from a 429 response,
// defaulting to one second and capping at two.
func retryAfterOf(resp *http.Response) time.Duration {
	d := time.Second
	if s := resp.Header.Get("Retry-After"); s != "" {
		var secs int
		if _, err := fmt.Sscanf(s, "%d", &secs); err == nil && secs >= 0 {
			d = time.Duration(secs) * time.Second
		}
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// recordSample folds one latency into the reservoir (Algorithm R, with
// st.count as the number of successful ops seen so far).
func (st *opStats) recordSample(ms float64, rng *rand.Rand) {
	if len(st.samples) < sampleCap {
		st.samples = append(st.samples, ms)
		return
	}
	if j := rng.Intn(st.count); j < sampleCap {
		st.samples[j] = ms
	}
}

func runLoad(c *client, ops []opWeight, conc int, d time.Duration, seed uint64) map[string]*opStats {
	deadline := time.Now().Add(d)
	perWorker := make([]map[string]*opStats, conc)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		stats := map[string]*opStats{}
		perWorker[w] = stats
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Each worker gets its own stream derived from -seed, so two
			// runs with the same flags draw the same op sequences and
			// mutate the same edges; the seed is echoed in the report.
			rng := rand.New(rand.NewSource(int64(seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15)))
			n := 0
			for time.Now().Before(deadline) {
				name := pick(ops, rng)
				label := c.opLabel(name)
				st := stats[label]
				if st == nil {
					st = &opStats{}
					stats[label] = st
				}
				t0 := time.Now()
				err := c.do(name, id, n, rng)
				var rej rejectedError
				switch {
				case err == nil:
					st.count++
					st.recordSample(float64(time.Since(t0))/float64(time.Millisecond), rng)
				case errors.As(err, &rej):
					st.rejected++
					time.Sleep(rej.retryAfter)
				default:
					st.errors++
					st.lastErr = err.Error()
				}
				n++
			}
		}(w)
	}
	wg.Wait()

	agg := map[string]*opStats{}
	for _, stats := range perWorker {
		for name, st := range stats {
			a := agg[name]
			if a == nil {
				a = &opStats{}
				agg[name] = a
			}
			a.count += st.count
			a.errors += st.errors
			a.rejected += st.rejected
			if st.lastErr != "" {
				a.lastErr = st.lastErr
			}
			a.samples = append(a.samples, st.samples...)
		}
	}
	return agg
}

// client issues the individual op classes against the server.
type client struct {
	base   string
	http   *http.Client
	name   string
	spec   string
	seed   uint64
	sigma2 float64
	params service.SparsifyParams // canonical job-op knobs
	mode   string
	wire   string // stream wire format: "text" | "binary"
	edges  []graph.Edge
}

// opLabel names the op class in the report. Job ops are labeled with the
// execution mode they request (job:multilevel, job:sharded, ...), so a
// BENCH_serve.json from a -mode run is never confused with a default one.
func (c *client) opLabel(op string) string {
	if op == "job" && c.mode != "" {
		return "job:" + c.mode
	}
	return op
}

func (c *client) do(op string, worker, n int, rng *rand.Rand) error {
	switch op {
	case "upload":
		return c.upload(worker, n)
	case "job":
		return c.job()
	case "patch":
		return c.patch(rng)
	case "stream":
		return c.stream(rng)
	case "read":
		return c.read()
	}
	return fmt.Errorf("unknown op %q", op)
}

// register installs the target graph, replacing a leftover from a prior
// run against the same server.
func (c *client) register() error {
	body := map[string]any{"name": c.name, "spec": c.spec, "seed": c.seed}
	code, _, err := c.json(http.MethodPost, "/v1/graphs", body, nil)
	if err != nil {
		return fmt.Errorf("register %s: %w", c.name, err)
	}
	if code == http.StatusCreated {
		return nil
	}
	// Name taken (possibly with different content after a mutating run):
	// drop it and retry once.
	if _, _, err := c.json(http.MethodDelete, "/v1/graphs/"+c.name, nil, nil); err != nil {
		return fmt.Errorf("delete stale %s: %w", c.name, err)
	}
	code, raw, err := c.json(http.MethodPost, "/v1/graphs", body, nil)
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return fmt.Errorf("register %s: %d %s", c.name, code, raw)
	}
	return nil
}

func (c *client) upload(worker, n int) error {
	name := fmt.Sprintf("lg-up-%d-%d", worker, n)
	code, raw, err := c.json(http.MethodPost, "/v1/graphs",
		map[string]any{"name": name, "spec": "grid:8x8", "seed": c.seed}, nil)
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return fmt.Errorf("upload: %d %s", code, raw)
	}
	_, _, err = c.json(http.MethodDelete, "/v1/graphs/"+name, nil, nil)
	return err
}

// job submits a sparsification and polls it only while it is queued or
// running; the recorded latency is submit to terminal status, including
// queue wait, in as few round trips as the daemon allows. A result-cache
// hit (200) and a quick job the daemon finished inside its submit wait
// (202) both come back terminal from the submit itself.
func (c *client) job() error {
	req := struct {
		Graph string `json:"graph"`
		service.SparsifyParams
	}{c.name, c.params}
	var job service.Job
	code, raw, err := c.json(http.MethodPost, "/v1/jobs", req, &job)
	if err != nil {
		return err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return fmt.Errorf("submit: %d %s", code, raw)
	}
	for {
		switch job.Status {
		case service.StatusDone:
			return nil
		case service.StatusFailed, service.StatusCanceled:
			return fmt.Errorf("job %s: %s %s", job.ID, job.Status, job.Error)
		}
		time.Sleep(5 * time.Millisecond)
		code, raw, err := c.json(http.MethodGet, "/v1/jobs/"+job.ID, nil, &job)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("poll: %d %s", code, raw)
		}
	}
}

// randomReweight mutates a known edge's weight within [0.5, 2.0]; edge
// endpoints never change, so the graph stays connected.
func (c *client) randomReweight(rng *rand.Rand) (u, v int, w float64) {
	e := c.edges[rng.Intn(len(c.edges))]
	return e.U, e.V, 0.5 + 1.5*rng.Float64()
}

func (c *client) patch(rng *rand.Rand) error {
	u, v, w := c.randomReweight(rng)
	body := map[string]any{"updates": []map[string]any{{"op": "reweight", "u": u, "v": v, "w": w}}}
	code, raw, err := c.json(http.MethodPatch, "/v1/graphs/"+c.name+"/edges", body, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("patch: %d %s", code, raw)
	}
	return nil
}

// stream sends one batch of reweights plus a commit, in the text (NDJSON)
// or binary wire format per -wire. The first stream against a cold server
// installs a maintainer session (a full sparsification); later batches
// ride the resident session.
func (c *client) stream(rng *rand.Rand) error {
	var b bytes.Buffer
	contentType := "application/x-ndjson"
	if c.wire == "binary" {
		buf := make([]byte, 0, 8*16)
		for i := 0; i < 8; i++ {
			u, v, w := c.randomReweight(rng)
			var err error
			buf, err = dynamic.AppendBinaryUpdate(buf, dynamic.Update{Op: dynamic.OpReweight, U: u, V: v, W: w})
			if err != nil {
				return err
			}
		}
		b.Write(dynamic.AppendBinaryCommit(buf))
		contentType = dynamic.BinaryContentType
	} else {
		for i := 0; i < 8; i++ {
			u, v, w := c.randomReweight(rng)
			fmt.Fprintf(&b, "= %d %d %g\n", u, v, w)
		}
		b.WriteString("commit\n")
	}
	url := c.base + "/v1/graphs/" + c.name + "/stream?" + service.SparsifyParams{SigmaSq: c.sigma2}.StreamQuery().Encode()
	resp, err := c.http.Post(url, contentType, &b)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusTooManyRequests {
		return rejectedError{retryAfterOf(resp)}
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream: %d %s", resp.StatusCode, raw)
	}
	// Response is NDJSON too: one result line per batch, then a summary.
	// A batch the server could not apply reports applied:false.
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var res struct {
			Applied *bool  `json:"applied"`
			Error   string `json:"error"`
		}
		if err := json.Unmarshal(line, &res); err != nil {
			return fmt.Errorf("stream response: %w", err)
		}
		if res.Applied != nil && !*res.Applied {
			return fmt.Errorf("stream batch rejected: %s", res.Error)
		}
	}
	return nil
}

func (c *client) read() error {
	code, raw, err := c.json(http.MethodGet, "/v1/graphs/"+c.name, nil, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("read: %d %s", code, raw)
	}
	return nil
}

// json issues a request with an optional JSON body, decoding the reply
// into out when non-nil.
func (c *client) json(method, path string, body, out any) (int, string, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, "", err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return resp.StatusCode, string(raw), rejectedError{retryAfterOf(resp)}
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, string(raw), err
		}
	}
	return resp.StatusCode, string(raw), nil
}

// bootServer starts an in-process sparsifyd on a loopback port using the
// same facade runners cmd/serve wires in.
func bootServer(workers int) (base string, shutdown func(), err error) {
	cfg := runners.Config()
	cfg.Workers = workers
	cfg.Metrics = obs.NewRegistry()
	srv := service.NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Queue().Shutdown(ctx)
		if m := srv.Sessions(); m != nil {
			m.Close(ctx)
		}
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// Report is the BENCH_serve.json shape.
type Report struct {
	Bench       string              `json:"bench"`
	Graph       string              `json:"graph"`
	Seed        uint64              `json:"seed"`
	Concurrency int                 `json:"concurrency"`
	DurationS   float64             `json:"duration_s"`
	Ops         map[string]OpReport `json:"ops"`
}

type OpReport struct {
	Count     int    `json:"count"`
	Errors    int    `json:"errors"`
	LastError string `json:"last_error,omitempty"`
	// Rejected counts 429s from admission control: the server shedding
	// load on purpose, reported separately from errors. RejectedRate is
	// rejected / (count + rejected + errors).
	Rejected     int     `json:"rejected"`
	RejectedRate float64 `json:"rejected_rate"`
	ThroughputPS float64 `json:"throughput_per_s"`
	P50Ms        float64 `json:"p50_ms"`
	P95Ms        float64 `json:"p95_ms"`
	P99Ms        float64 `json:"p99_ms"`
	// Percentiles are computed from a per-worker uniform reservoir of
	// at most SampleCap latencies, not from every op; SamplesKept is
	// the pooled reservoir size they were read from.
	SampleCap   int `json:"sample_cap"`
	SamplesKept int `json:"samples_kept"`
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func buildReport(agg map[string]*opStats, spec string, conc int, d time.Duration, seed uint64) Report {
	rep := Report{
		Bench:       "serve_loadgen",
		Graph:       spec,
		Seed:        seed,
		Concurrency: conc,
		DurationS:   d.Seconds(),
		Ops:         map[string]OpReport{},
	}
	for name, st := range agg {
		sort.Float64s(st.samples)
		rejRate := 0.0
		if total := st.count + st.rejected + st.errors; total > 0 {
			rejRate = float64(st.rejected) / float64(total)
		}
		rep.Ops[name] = OpReport{
			Count:        st.count,
			Errors:       st.errors,
			LastError:    st.lastErr,
			Rejected:     st.rejected,
			RejectedRate: rejRate,
			ThroughputPS: float64(st.count) / d.Seconds(),
			P50Ms:        percentile(st.samples, 0.50),
			P95Ms:        percentile(st.samples, 0.95),
			P99Ms:        percentile(st.samples, 0.99),
			SampleCap:    sampleCap,
			SamplesKept:  len(st.samples),
		}
	}
	return rep
}

func printReport(rep Report) {
	names := make([]string, 0, len(rep.Ops))
	for name := range rep.Ops {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-8s %8s %7s %8s %10s %10s %10s %10s\n",
		"op", "count", "errors", "rejects", "ops/s", "p50 ms", "p95 ms", "p99 ms")
	for _, name := range names {
		op := rep.Ops[name]
		fmt.Printf("%-8s %8d %7d %8d %10.1f %10.2f %10.2f %10.2f\n",
			name, op.Count, op.Errors, op.Rejected, op.ThroughputPS, op.P50Ms, op.P95Ms, op.P99Ms)
		if op.LastError != "" {
			fmt.Printf("         last error: %s\n", op.LastError)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
