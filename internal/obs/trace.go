package obs

import (
	"context"
	"sync"
	"time"
)

// The span API gives every pipeline run a per-phase wall-time
// breakdown. Phases are flat, named spans (partition, shard, stitch,
// embed, verify, settle, refilter, ...) that a pipeline opens with
// StartSpan and closes with End. Each End does two things:
//
//   - it observes the duration into the Default registry's
//     graphspar_phase_seconds{phase=...} histogram, so a serving daemon
//     aggregates where wall time goes across every request, and
//   - if the context carries a Trace (WithTrace), it appends the span
//     to it, so one request's exact breakdown can be returned to the
//     caller (job results, ?trace=1 responses, Result.Phases).
//
// Spans may overlap: settle encloses the refilter and verify spans it
// drives, a sharded run's shard span encloses per-shard work, and the
// factor spans sit inside whichever of sparsify or refilter asked for
// the factorization — inside verify only when the certificate had no
// loop factor of the final P to adopt and built its own. A Trace is an
// observation log, not a tree.

// PhaseName names a pipeline phase. It is a distinct type so the
// compiler keeps arbitrary request-derived strings out of StartSpan:
// the phase set is the closed vocabulary of string literals in pipeline
// code, and it feeds a metric label, so it must stay low-cardinality.
type PhaseName string

// PhaseFactor spans one ordering + Cholesky factorization of a
// sparsifier Laplacian. It is declared here, not spelled as a literal,
// because two packages open it: core around the filter loop's per-round
// solver builds, engine around the certificate's own build when no loop
// handed one over.
const PhaseFactor PhaseName = "factor"

// Phase is one completed span: its name, start offset from the trace's
// first span, and duration.
type Phase struct {
	Name     string        `json:"name"`
	Start    time.Duration `json:"start_ns"`
	Duration time.Duration `json:"duration_ns"`
}

// Trace collects the spans of one logical request. Safe for concurrent
// use (sharded runs end spans from worker goroutines).
type Trace struct {
	mu     sync.Mutex
	t0     time.Time
	phases []Phase
}

// NewTrace returns an empty trace; its clock starts at the first span.
func NewTrace() *Trace { return &Trace{} }

// Phases snapshots the spans recorded so far, in end order.
func (t *Trace) Phases() []Phase {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Phase(nil), t.phases...)
}

func (t *Trace) add(name string, start time.Time, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.t0.IsZero() {
		t.t0 = start
	}
	t.phases = append(t.phases, Phase{Name: name, Start: start.Sub(t.t0), Duration: d})
}

type traceKey struct{}

// WithTrace attaches a trace to the context; spans started under it are
// collected there in addition to the aggregate histograms.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the context's trace, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// Span is one in-flight phase measurement.
type Span struct {
	name  PhaseName
	start time.Time
	trace *Trace
	done  bool
}

// phaseSeconds aggregates every span ended anywhere in the process.
var phaseSeconds = Default.HistogramVec("graphspar_phase_seconds",
	"Wall time of pipeline phases (partition, shard, stitch, embed, factor, verify, settle, refilter, session_build), by phase.",
	nil, "phase")

// StartSpan opens a phase span. End it exactly once; a second End is a
// no-op. StartSpan never fails and costs two map reads plus a clock
// read, so pipeline code can use it unconditionally.
func StartSpan(ctx context.Context, name PhaseName) *Span {
	return &Span{name: name, start: time.Now(), trace: FromContext(ctx)}
}

// End closes the span, records it, and returns its duration.
func (s *Span) End() time.Duration {
	if s.done {
		return 0
	}
	s.done = true
	d := time.Since(s.start)
	phaseSeconds.With(string(s.name)).Observe(d.Seconds())
	if s.trace != nil {
		s.trace.add(string(s.name), s.start, d)
	}
	return d
}
