package service

import (
	"net/http"
	"strconv"
	"time"

	"graphspar/internal/obs"
)

// serverMetrics bundles the server's explicit instruments. Everything a
// subsystem already counts for itself (cache hits, session evictions,
// queue depth) is exported as scrape-time func-backed metrics instead —
// see registerStateMetrics — so nothing is tracked twice. A nil
// *serverMetrics disables instrumentation (observe methods no-op), which
// keeps the bare NewQueue constructor usable in tests.
type serverMetrics struct {
	reg *obs.Registry

	requests   *obs.CounterVec   // graphspar_http_requests_total{route,method,code}
	reqSeconds *obs.HistogramVec // graphspar_http_request_seconds{route}

	jobSubmits    *obs.CounterVec // graphspar_job_submits_total{outcome}
	jobsCompleted *obs.CounterVec // graphspar_jobs_completed_total{status}
	jobWait       *obs.Histogram  // graphspar_job_wait_seconds
	jobRun        *obs.Histogram  // graphspar_job_run_seconds

	streamBatches *obs.CounterVec // graphspar_stream_batches_total{outcome}
	streamBatch   *obs.Histogram  // graphspar_stream_batch_seconds
	sessionBuilds *obs.CounterVec // graphspar_session_builds_total{origin}

	admissionRejections *obs.CounterVec // graphspar_admission_rejections_total{route}
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	if reg == nil {
		reg = obs.Default
	}
	return &serverMetrics{
		reg: reg,
		requests: reg.CounterVec("graphspar_http_requests_total",
			"HTTP requests by route pattern, method and status code.",
			"route", "method", "code"),
		reqSeconds: reg.HistogramVec("graphspar_http_request_seconds",
			"HTTP request latency by route pattern.", nil, "route"),
		jobSubmits: reg.CounterVec("graphspar_job_submits_total",
			"Accepted job submissions by how POST /v1/jobs answered them (cache | answered | pending).",
			"outcome"),
		jobsCompleted: reg.CounterVec("graphspar_jobs_completed_total",
			"Jobs reaching a terminal state, by status (done | failed | canceled).",
			"status"),
		jobWait: reg.Histogram("graphspar_job_wait_seconds",
			"Time jobs spent queued before a worker picked them up.", nil),
		jobRun: reg.Histogram("graphspar_job_run_seconds",
			"Job execution time, from worker pickup to terminal state.", nil),
		streamBatches: reg.CounterVec("graphspar_stream_batches_total",
			"Stream update batches by outcome (applied | rejected | failed).",
			"outcome"),
		streamBatch: reg.Histogram("graphspar_stream_batch_seconds",
			"Stream batch apply latency (session acquire + maintain + registry swap).", nil),
		sessionBuilds: reg.CounterVec("graphspar_session_builds_total",
			"Maintainers built because no resident session matched the request, by what asked for one (stream | job).",
			"origin"),
		admissionRejections: reg.CounterVec("graphspar_admission_rejections_total",
			"Requests shed with 429 by admission control, by route (jobs | stream).",
			"route"),
	}
}

// registerStateMetrics exposes, at scrape time, the state other server
// components already track: queue depth and in-flight workers, the graph
// registry size, result-cache effectiveness, and the session manager's
// lifetime counters. Func-backed series bind to the first server that
// registers them on a given registry; a process embedding several
// servers should give each its own Config.Metrics registry.
func (s *Server) registerStateMetrics() {
	reg := s.metrics.reg
	reg.GaugeFunc("graphspar_job_queue_depth",
		"Jobs waiting in the backlog.",
		func() float64 { return float64(s.queue.Depth()) })
	reg.GaugeFunc("graphspar_jobs_in_flight",
		"Jobs currently executing on workers.",
		func() float64 { return float64(s.queue.InFlight()) })
	reg.GaugeFunc("graphspar_job_workers",
		"Size of the job worker pool.",
		func() float64 { return float64(s.queue.Workers()) })
	reg.GaugeFunc("graphspar_graphs_registered",
		"Graphs resident in the registry.",
		func() float64 { return float64(s.registry.Len()) })
	if s.admission != nil {
		reg.GaugeFunc("graphspar_streams_in_flight",
			"Stream requests currently held against the admission watermark.",
			func() float64 { return float64(s.admission.inFlightStreams()) })
	}

	reg.CounterFunc("graphspar_result_cache_hits_total",
		"Result-cache exact hits.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	reg.CounterFunc("graphspar_result_cache_coarser_hits_total",
		"Result-cache coarser-sigma2 hits.",
		func() float64 { return float64(s.cache.Stats().CoarserHits) })
	reg.CounterFunc("graphspar_result_cache_misses_total",
		"Result-cache misses.",
		func() float64 { return float64(s.cache.Stats().Misses) })

	if s.sessions == nil {
		return
	}
	reg.GaugeFunc("graphspar_sessions_resident",
		"Resident maintainer sessions.",
		func() float64 { return float64(s.sessions.Stats().Sessions) })
	reg.GaugeFunc("graphspar_sessions_resident_bytes",
		"Summed memory estimate of resident sessions.",
		func() float64 { return float64(s.sessions.Stats().ResidentBytes) })
	reg.CounterFunc("graphspar_session_hits_total",
		"Session lookups served by a resident maintainer.",
		func() float64 { return float64(s.sessions.Stats().Hits) })
	reg.CounterFunc("graphspar_session_misses_total",
		"Session lookups that found no usable resident maintainer.",
		func() float64 { return float64(s.sessions.Stats().Misses) })
	reg.CounterFunc("graphspar_session_installs_total",
		"Maintainer sessions installed.",
		func() float64 { return float64(s.sessions.Stats().Installs) })
	reg.CounterFunc("graphspar_session_evictions_total",
		"Sessions evicted by the count or byte budget.",
		func() float64 { return float64(s.sessions.Stats().Evictions) })
	reg.CounterFunc("graphspar_session_expirations_total",
		"Sessions expired by the idle TTL.",
		func() float64 { return float64(s.sessions.Stats().Expirations) })
}

// instrument wraps the routed mux with per-request accounting. All three
// labels go through bounded helpers: the route is the matched ServeMux
// pattern, the method is clamped to the registered HTTP verbs, and the
// code to plausible HTTP statuses — so an attacker spraying garbage
// methods or a buggy handler writing status 12345 cannot mint series.
func (m *serverMetrics) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		route := routeLabel(r)
		m.requests.With(route, methodLabel(r.Method), statusLabel(sw.status)).Inc()
		m.reqSeconds.With(route).Observe(time.Since(t0).Seconds())
	})
}

//graphspar:bounded the matched ServeMux pattern comes from the fixed route table; unmatched requests collapse to one value
func routeLabel(r *http.Request) string {
	if r.Pattern == "" {
		return "unmatched"
	}
	return r.Pattern
}

//graphspar:bounded collapses arbitrary request methods to the nine registered HTTP verbs plus "other"
func methodLabel(method string) string {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut,
		http.MethodPatch, http.MethodDelete, http.MethodConnect,
		http.MethodOptions, http.MethodTrace:
		return method
	}
	return "other"
}

//graphspar:bounded clamps status codes to the 100-599 HTTP range plus "other"; an unset status means the handler wrote 200
func statusLabel(code int) string {
	if code == 0 {
		code = http.StatusOK
	}
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code)
}

// submitOutcome is the closed label set for job submissions: served from
// the result cache (the 200), answered terminal inside submitWait, or
// answered while still queued or running (the wait expired, or no worker
// was free to start the job at once).
type submitOutcome string

const (
	submitCache    submitOutcome = "cache"
	submitAnswered submitOutcome = "answered"
	submitPending  submitOutcome = "pending"
)

// observeSubmit counts one accepted job submission.
func (m *serverMetrics) observeSubmit(outcome submitOutcome) {
	if m == nil {
		return
	}
	m.jobSubmits.With(string(outcome)).Inc()
}

// observeJobDone records one terminal job.
func (m *serverMetrics) observeJobDone(status JobStatus, wait, run time.Duration) {
	if m == nil {
		return
	}
	m.jobsCompleted.With(string(status)).Inc()
	if wait >= 0 {
		m.jobWait.Observe(wait.Seconds())
	}
	if run >= 0 {
		m.jobRun.Observe(run.Seconds())
	}
}

// batchOutcome is the closed label set for stream batch accounting.
type batchOutcome string

const (
	batchApplied  batchOutcome = "applied"
	batchRejected batchOutcome = "rejected"
	batchFailed   batchOutcome = "failed"
)

// admissionRouteLabel names the shedding route for the rejection
// counter. Deliberately carries no //graphspar:bounded directive: every
// return is a string literal, which the metriclabel analyzer recognizes
// as bounded by construction.
func admissionRouteLabel(stream bool) string {
	if stream {
		return "stream"
	}
	return "jobs"
}

// observeAdmissionRejection counts one request shed by admission control.
func (m *serverMetrics) observeAdmissionRejection(stream bool) {
	if m == nil {
		return
	}
	m.admissionRejections.With(admissionRouteLabel(stream)).Inc()
}

// observeStreamBatch records one stream batch and its latency.
func (m *serverMetrics) observeStreamBatch(outcome batchOutcome, d time.Duration) {
	if m == nil {
		return
	}
	m.streamBatches.With(string(outcome)).Inc()
	m.streamBatch.Observe(d.Seconds())
}

// statusWriter captures the response status for the request counter.
// Unwrap keeps http.NewResponseController working through the wrapper —
// the stream endpoint needs EnableFullDuplex and Flush on the real
// writer.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// PhaseMs is the wire form of one pipeline phase span: the phase name,
// its offset from the start of the request's trace, and its duration,
// both in milliseconds.
type PhaseMs struct {
	Phase string  `json:"phase"`
	AtMs  float64 `json:"at_ms"`
	Ms    float64 `json:"ms"`
}

// toPhaseMs converts a collected trace to the wire form.
func toPhaseMs(ps []obs.Phase) []PhaseMs {
	if len(ps) == 0 {
		return nil
	}
	out := make([]PhaseMs, len(ps))
	for i, p := range ps {
		out[i] = PhaseMs{
			Phase: p.Name,
			AtMs:  float64(p.Start.Microseconds()) / 1000,
			Ms:    float64(p.Duration.Microseconds()) / 1000,
		}
	}
	return out
}
