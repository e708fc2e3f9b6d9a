package service

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
)

// Saturation-aware admission control. The queue's hard Backlog bound
// already rejects with 503 once nothing more fits, but by then every
// accepted job is condemned to a long job_wait_seconds — the daemon is
// saturated and still promising work. Admission control sheds earlier
// and deliberately: once the backlog depth or the number of in-flight
// stream requests crosses its watermark, new work is turned away with
// 429 + Retry-After so clients back off while the pool drains. Both
// watermarks are off unless configured (Config.Admission*); cmd/serve
// enables the queue watermark by default.

// ErrSaturated reports a submission shed by admission control; the
// handlers map it to 429 with a Retry-After hint.
var ErrSaturated = errors.New("service: saturated, retry later")

// retryAfter is the Retry-After hint on every 429, in seconds.
const retryAfter = 1

type admissionController struct {
	queueHigh  int   // shed job submissions at this backlog depth (<=0 off)
	streamHigh int64 // max concurrent stream requests (<=0 off)
	streams    atomic.Int64
	metrics    *serverMetrics
}

// newAdmissionController builds the controller, or nil when both
// watermarks are disabled (a nil controller admits everything).
func newAdmissionController(cfg Config, m *serverMetrics) *admissionController {
	if cfg.AdmissionQueueHigh <= 0 && cfg.AdmissionStreamHigh <= 0 {
		return nil
	}
	return &admissionController{
		queueHigh:  cfg.AdmissionQueueHigh,
		streamHigh: int64(cfg.AdmissionStreamHigh),
		metrics:    m,
	}
}

// admitJob reports whether a job that would enqueue may proceed given
// the current backlog depth. Cache hits never reach this check — a
// request served from memory costs nothing and shedding it would only
// add retry traffic.
func (a *admissionController) admitJob(depth int) bool {
	if a == nil || a.queueHigh <= 0 {
		return true
	}
	return depth < a.queueHigh
}

// acquireStream reserves an in-flight stream slot. ok=false means the
// watermark is crossed and the request must be shed; otherwise release
// must be called when the stream ends.
func (a *admissionController) acquireStream() (release func(), ok bool) {
	if a == nil || a.streamHigh <= 0 {
		return func() {}, true
	}
	if n := a.streams.Add(1); n > a.streamHigh {
		a.streams.Add(-1)
		return nil, false
	}
	return func() { a.streams.Add(-1) }, true
}

// inFlightStreams reports the current stream count (for the gauge).
func (a *admissionController) inFlightStreams() int64 {
	if a == nil {
		return 0
	}
	return a.streams.Load()
}

// shed writes the 429 rejection: Retry-After header, rejection counter,
// JSON error body.
func (a *admissionController) shed(w http.ResponseWriter, stream bool) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	a.metrics.observeAdmissionRejection(stream)
	writeErr(w, http.StatusTooManyRequests,
		fmt.Errorf("%w: retry after %ds", ErrSaturated, retryAfter))
}
