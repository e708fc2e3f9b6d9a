package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphspar/internal/cli"
	"graphspar/internal/dynamic"
	"graphspar/internal/graph"
	"graphspar/internal/mm"
	"graphspar/internal/obs"
	"graphspar/internal/params"
	"graphspar/internal/sessions"
)

// maxUploadBytes bounds MatrixMarket uploads (64 MiB).
const maxUploadBytes = 64 << 20

// Config sizes the server's components. Zero values take the defaults;
// pass a negative value to disable the backlog or the cache outright.
type Config struct {
	Workers   int // concurrent sparsifications (default 4)
	Backlog   int // queued jobs beyond the running ones (default 64; negative = none)
	CacheSize int // LRU result-cache capacity (default 128; negative disables)
	// Sparsify runs from-scratch jobs. cmd/serve injects the production
	// runners (built on the public graphspar facade, which internal
	// packages cannot import); tests inject stubs. Jobs needing a nil
	// runner fail with ErrNoRunner.
	Sparsify SparsifyFunc
	// Maintain builds a live maintainer for a graph: the one way a
	// persistent session comes to exist, for a stream request or an
	// incremental job that finds none resident. Facade-backed and
	// injected like Sparsify. When it is nil, or SessionMax is negative,
	// persistent sessions are off: the stream endpoint answers 501, PATCH
	// mutates the graph only, and an incremental job runs from scratch.
	Maintain MaintainFunc
	// SessionMax caps resident maintainer sessions (0 = default 32;
	// negative disables sessions outright). SessionBudgetBytes bounds
	// their summed memory estimate (0 = 1 GiB) and SessionTTL their idle
	// lifetime (0 = 15 min; negative = never expire).
	SessionMax         int
	SessionBudgetBytes int64
	SessionTTL         time.Duration
	// Admission control (see admission.go). AdmissionQueueHigh sheds job
	// submissions that would enqueue with 429 + Retry-After once the
	// backlog holds this many jobs — a soft watermark below the hard
	// Backlog bound's 503, reached while there is still room to say no
	// politely. AdmissionStreamHigh caps concurrent stream requests the
	// same way. Zero or negative leaves the corresponding watermark off
	// (the library default; cmd/serve turns the queue watermark on).
	// Every 429 advertises Retry-After: 1.
	AdmissionQueueHigh  int
	AdmissionStreamHigh int
	// Metrics is the registry the server instruments itself into and
	// serves at GET /metrics (nil = obs.Default, which also carries the
	// pipeline phase histograms). A process embedding several servers
	// should give each its own registry: scrape-time func-backed series
	// bind to the first server that registers them.
	Metrics *obs.Registry
}

// MaintainFunc builds a live maintainer for a graph from scratch.
type MaintainFunc func(ctx context.Context, g *graph.Graph, p SparsifyParams) (sessions.Maintainer, error)

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	switch {
	case c.Backlog == 0:
		c.Backlog = 64
	case c.Backlog < 0:
		c.Backlog = 0
	}
	switch {
	case c.CacheSize == 0:
		c.CacheSize = 128
	case c.CacheSize < 0:
		c.CacheSize = 0
	}
}

// Server ties the registry, queue, cache and persistent sessions
// together behind an HTTP API.
type Server struct {
	registry *Registry
	cache    *ResultCache
	queue    *Queue
	sparsify SparsifyFunc
	sessions *sessions.Manager // nil when sessions are disabled
	maintain MaintainFunc
	// maintainSem bounds concurrent maintainer builds to the same width as
	// the job worker pool — a build is a full sparsification and must not
	// dodge the -workers bound when a stream request asks for it.
	maintainSem chan struct{}
	metrics     *serverMetrics
	admission   *admissionController // nil = admit everything
}

// NewServer builds a ready-to-serve sparsifyd instance.
func NewServer(cfg Config) *Server {
	cfg.defaults()
	s := &Server{
		registry: NewRegistry(),
		cache:    NewResultCache(cfg.CacheSize),
		sparsify: cfg.Sparsify,
		metrics:  newServerMetrics(cfg.Metrics),
	}
	if cfg.Maintain != nil && cfg.SessionMax >= 0 {
		s.sessions = sessions.NewManager(sessions.Options{
			MaxSessions:      cfg.SessionMax,
			MaxResidentBytes: cfg.SessionBudgetBytes,
			IdleTTL:          cfg.SessionTTL,
			Hash:             HashGraph,
		})
		s.maintain = cfg.Maintain
		s.maintainSem = make(chan struct{}, cfg.Workers)
	}
	s.queue = NewQueue(cfg.Workers, cfg.Backlog, s.cache, s.runJob)
	s.queue.SetCacheGate(s.registry.HasHash)
	s.queue.setMetrics(s.metrics)
	s.admission = newAdmissionController(cfg, s.metrics)
	s.queue.setAdmission(s.admission)
	s.registerStateMetrics()
	return s
}

// Registry exposes the graph store (for CLI-side preloading).
func (s *Server) Registry() *Registry { return s.registry }

// Queue exposes the job queue (for shutdown wiring).
func (s *Server) Queue() *Queue { return s.queue }

// Sessions exposes the persistent-session manager (nil when disabled);
// cmd/serve drains it on shutdown.
func (s *Server) Sessions() *sessions.Manager { return s.sessions }

// Handler returns the routed HTTP API:
//
//	POST   /v1/graphs                {name, spec, seed}   register from generator spec or .mtx path
//	PUT    /v1/graphs/{name}         body = MatrixMarket  register from upload
//	GET    /v1/graphs                                     list
//	GET    /v1/graphs/{name}                              metadata
//	GET    /v1/graphs/{name}/laplacian.mtx                Laplacian download
//	PATCH  /v1/graphs/{name}/edges   {updates: [...]}     atomic edge insert/delete/reweight batch
//	POST   /v1/graphs/{name}/stream  NDJSON/event lines   chunked update-batch ingestion via the persistent session
//	DELETE /v1/graphs/{name}                              remove
//	POST   /v1/jobs                  {graph, sigma2, ...} submit (cache-aware)
//	GET    /v1/jobs                                       list
//	GET    /v1/jobs/{id}                                  poll status + report
//	GET    /v1/jobs/{id}/sparsifier.mtx                   result Laplacian
//	GET    /v1/jobs/{id}/edges.mtx                        result adjacency edge list
//	GET    /v1/jobs/{id}/edges                            result edge list as JSON
//	GET    /v1/healthz                                    liveness + stats
//	GET    /metrics                                       Prometheus text exposition
//
// Every route is wrapped with request accounting (latency histogram and
// status counter per route pattern) feeding the same registry /metrics
// serves.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs", s.handleRegisterSpec)
	mux.HandleFunc("PUT /v1/graphs/{name}", s.handleUpload)
	mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	mux.HandleFunc("GET /v1/graphs/{name}", s.handleGetGraph)
	mux.HandleFunc("GET /v1/graphs/{name}/laplacian.mtx", s.handleGraphLaplacian)
	mux.HandleFunc("PATCH /v1/graphs/{name}/edges", s.handlePatchEdges)
	mux.HandleFunc("POST /v1/graphs/{name}/stream", s.handleStreamEvents)
	mux.HandleFunc("DELETE /v1/graphs/{name}", s.handleDeleteGraph)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/jobs/{id}/sparsifier.mtx", s.handleJobSparsifier)
	mux.HandleFunc("GET /v1/jobs/{id}/edges.mtx", s.handleJobEdgesMtx)
	mux.HandleFunc("GET /v1/jobs/{id}/edges", s.handleJobEdgesJSON)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.metrics.reg.Handler())
	return s.metrics.instrument(mux)
}

// ---------------------------------------------------------------- helpers

type apiError struct {
	Error string `json:"error"`
}

// jsonEnc pairs a reusable buffer with an encoder bound to it, so the
// per-response cost of writeJSON is the marshal alone — no new encoder
// or buffer on the request path.
type jsonEnc struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonEncPool = sync.Pool{New: func() any {
	e := &jsonEnc{}
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

// maxPooledEncBytes keeps one giant response (a full job listing, say)
// from pinning its buffer in the pool forever.
const maxPooledEncBytes = 1 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	e := jsonEncPool.Get().(*jsonEnc)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		// Marshal failures are programming errors (unsupported type); the
		// response is already committed to JSON, so emit a minimal error.
		e.buf.Reset()
		fmt.Fprintf(&e.buf, "{\"error\":%q}\n", err.Error())
		code = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(e.buf.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(e.buf.Bytes())
	if e.buf.Cap() <= maxPooledEncBytes {
		jsonEncPool.Put(e)
	}
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// decodeBody decodes a JSON request body of at most limit bytes into v.
// A key v does not declare is an error naming it: a misspelt or retired
// parameter must not run as a silently different request.
func decodeBody(r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad JSON body: %w", err)
	}
	return nil
}

// errStatus maps service errors to HTTP codes.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrGraphNotFound), errors.Is(err, ErrJobNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrGraphExists), errors.Is(err, ErrGraphChanged):
		return http.StatusConflict
	case errors.Is(err, ErrSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrQueueFull):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrQueueClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrJobUnfinished):
		return http.StatusConflict
	case errors.Is(err, ErrBadGraphName), errors.Is(err, cli.ErrSpec),
		errors.Is(err, mm.ErrFormat), errors.Is(err, mm.ErrUnsupported),
		errors.Is(err, dynamic.ErrBadUpdate), errors.Is(err, params.ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, dynamic.ErrEdgeExists):
		return http.StatusConflict
	case errors.Is(err, dynamic.ErrEdgeMissing), errors.Is(err, dynamic.ErrWouldDisconnect):
		// Structurally valid requests the current graph cannot satisfy —
		// notably deleting a bridge, which would disconnect the graph.
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

type graphInfo struct {
	Name      string `json:"name"`
	Hash      string `json:"hash"`
	Source    string `json:"source"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	CreatedAt string `json:"created_at"`
}

func toGraphInfo(e *GraphEntry) graphInfo {
	return graphInfo{
		Name:      e.Name,
		Hash:      e.Hash,
		Source:    e.Source,
		N:         e.N,
		M:         e.M,
		CreatedAt: e.CreatedAt.Format("2006-01-02T15:04:05Z"),
	}
}

// ----------------------------------------------------------------- graphs

type registerRequest struct {
	Name string `json:"name"`
	Spec string `json:"spec"`
	Seed uint64 `json:"seed,omitempty"`
}

// maxSpecWork bounds the generation cost a remote client may request:
// the product of the spec's size parameters roughly tracks both vertex
// count (grid dims multiply) and generation work (N·K style generators),
// and it is computable without running the generator.
const maxSpecWork = 50_000_000

// checkSpecBudget rejects generator specs whose size parameters multiply
// past the work budget, before any allocation happens. Parameters ≤ 1
// (probabilities such as ws beta or coauth closure) don't contribute.
// Handlers pass maxSpecWork; the fuzz harness passes a tiny budget so
// generator execution stays cheap per exec.
func checkSpecBudget(spec string, budget float64) error {
	work := 1.0
	_, rest, _ := strings.Cut(spec, ":")
	for _, part := range strings.FieldsFunc(rest, func(r rune) bool {
		return r == ':' || r == 'x' || r == ','
	}) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			continue // weight-mode words etc.; LoadGraph validates properly
		}
		if v > 1 {
			work *= v
		}
		if work > budget {
			return fmt.Errorf("spec %q exceeds the size budget (~%d units); generate it offline and upload instead", spec, int64(budget))
		}
	}
	return nil
}

func (s *Server) handleRegisterSpec(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := decodeBody(r, 1<<20, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Spec == "" {
		writeErr(w, http.StatusBadRequest, errors.New("spec is required"))
		return
	}
	// Only generator specs are allowed over HTTP: a file path here would
	// make the server open arbitrary local files on behalf of remote
	// clients. Uploads are the way to bring graph files in; -preload
	// covers operator-side file loading.
	if strings.HasSuffix(req.Spec, ".mtx") || strings.ContainsAny(req.Spec, `/\`) {
		writeErr(w, http.StatusBadRequest,
			errors.New("file specs are not accepted over HTTP; upload the MatrixMarket file with PUT /v1/graphs/{name}"))
		return
	}
	if err := checkSpecBudget(req.Spec, maxSpecWork); err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	g, err := cli.LoadGraph(req.Spec, seed)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	if err := g.RequireConnected(); err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	entry, err := s.registry.Register(req.Name, req.Spec, g)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, toGraphInfo(entry))
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	m, err := mm.Read(io.LimitReader(r.Body, maxUploadBytes))
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	// A connected graph on n vertices needs at least n-1 entries, so a
	// header declaring huge dimensions over a small entry list cannot be
	// usable — reject before the O(n) allocations in the connectivity
	// check can act on the hostile dimension.
	if m.Rows > len(m.Entries)+1 {
		writeErr(w, http.StatusUnprocessableEntity,
			fmt.Errorf("matrix declares %d vertices but only %d entries; it cannot be connected", m.Rows, len(m.Entries)))
		return
	}
	g, err := m.ToGraph()
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	if err := g.RequireConnected(); err != nil {
		// Sparsification requires connectivity; reject early with a
		// semantic (not syntactic) error code.
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	entry, err := s.registry.Register(name, "upload", g)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, toGraphInfo(entry))
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	entries := s.registry.List()
	out := make([]graphInfo, len(entries))
	for i, e := range entries {
		out[i] = toGraphInfo(e)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	entry, err := s.registry.Get(r.PathValue("name"))
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, toGraphInfo(entry))
}

func (s *Server) handleGraphLaplacian(w http.ResponseWriter, r *http.Request) {
	entry, err := s.registry.Get(r.PathValue("name"))
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	serveMtx(w, entry.Name+".mtx", entry.Graph, mm.WriteGraph)
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	entry, err := s.registry.Delete(name)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	if s.sessions != nil {
		// The resident maintainer is for a graph that no longer exists.
		s.sessions.Invalidate(name)
	}
	s.sweepCache(entry.Hash)
	w.WriteHeader(http.StatusNoContent)
}

func serveMtx(w http.ResponseWriter, filename string, g *graph.Graph, write func(io.Writer, *graph.Graph) error) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Disposition", `attachment; filename="`+filename+`"`)
	if err := write(w, g); err != nil {
		// Headers are gone; the best we can do is drop the connection.
		panic(http.ErrAbortHandler)
	}
}

// ------------------------------------------------------------------- jobs

type submitRequest struct {
	Graph string `json:"graph"`
	SparsifyParams
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := decodeBody(r, 1<<20, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Graph == "" {
		writeErr(w, http.StatusBadRequest, errors.New("graph is required"))
		return
	}
	if err := req.SparsifyParams.Canon(); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	entry, err := s.registry.Get(req.Graph)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	job, err := s.queue.Submit(entry, req.SparsifyParams)
	if err != nil {
		if errors.Is(err, ErrSaturated) {
			s.admission.shed(w, false)
			return
		}
		writeErr(w, errStatus(err), err)
		return
	}
	code := http.StatusAccepted
	if job.Status == StatusDone {
		code = http.StatusOK // served from cache
	}
	writeJSON(w, code, job)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.queue.List())
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.queue.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// finishedSparsifier fetches a job's result graph or the right error.
func (s *Server) finishedSparsifier(id string) (*graph.Graph, Job, error) {
	job, err := s.queue.Get(id)
	if err != nil {
		return nil, Job{}, err
	}
	if job.Status != StatusDone || job.Result == nil || job.Result.Sparsifier == nil {
		return nil, job, fmt.Errorf("%w: %s is %s", ErrJobUnfinished, id, job.Status)
	}
	return job.Result.Sparsifier, job, nil
}

func (s *Server) handleJobSparsifier(w http.ResponseWriter, r *http.Request) {
	g, job, err := s.finishedSparsifier(r.PathValue("id"))
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	serveMtx(w, job.ID+"-sparsifier.mtx", g, mm.WriteGraph)
}

func (s *Server) handleJobEdgesMtx(w http.ResponseWriter, r *http.Request) {
	g, job, err := s.finishedSparsifier(r.PathValue("id"))
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	serveMtx(w, job.ID+"-edges.mtx", g, mm.WriteEdgeList)
}

type edgeJSON struct {
	U int     `json:"u"`
	V int     `json:"v"`
	W float64 `json:"w"`
}

func (s *Server) handleJobEdgesJSON(w http.ResponseWriter, r *http.Request) {
	g, _, err := s.finishedSparsifier(r.PathValue("id"))
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	edges := make([]edgeJSON, g.M())
	for i, e := range g.Edges() {
		edges[i] = edgeJSON{U: e.U, V: e.V, W: e.W}
	}
	writeJSON(w, http.StatusOK, struct {
		N     int        `json:"n"`
		M     int        `json:"m"`
		Edges []edgeJSON `json:"edges"`
	}{g.N(), g.M(), edges})
}

// ----------------------------------------------------------------- health

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	var sess *sessions.ManagerStats
	if s.sessions != nil {
		st := s.sessions.Stats()
		sess = &st
	}
	writeJSON(w, http.StatusOK, struct {
		Status   string                 `json:"status"`
		Graphs   int                    `json:"graphs"`
		Queued   int                    `json:"queued"`
		InFlight int                    `json:"in_flight"`
		Workers  int                    `json:"workers"`
		Cache    CacheStats             `json:"cache"`
		Sessions *sessions.ManagerStats `json:"sessions,omitempty"`
	}{"ok", s.registry.Len(), s.queue.Depth(), s.queue.InFlight(), s.queue.Workers(), s.cache.Stats(), sess})
}
