// Package obs is the repository's zero-dependency observability layer:
// a metrics registry (counters, gauges, fixed-bucket histograms, all
// safe for concurrent use) that renders the Prometheus text exposition
// format, and a span/trace API (StartSpan) the pipeline packages use to
// report per-phase wall time — both per request, via a Trace carried in
// the context, and in aggregate, via phase histograms on the Default
// registry.
//
// The package is dependency-free by design: the service exposes GET
// /metrics by writing the registry straight onto the response, and any
// Prometheus-compatible scraper can consume it. Metric handles are
// looked up by name (expvar-style), so independent packages can share
// one registry without init-order coupling; looking a name up twice
// returns the same handle, and registering the same name as two
// different kinds panics — that is a programming error, not input.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry. Pipeline spans aggregate their
// phase histograms here, and cmd/serve exposes it at /metrics. Tests
// that need isolation build their own registry with NewRegistry.
var Default = NewRegistry()

// DefBuckets returns the default latency histogram upper bounds, in
// seconds: two-decade log-ish spacing from 100µs to 60s, sized for both
// sub-millisecond cache hits and multi-second cold sparsifications.
func DefBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
		0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
	}
}

// Registry holds named metric families and renders them as Prometheus
// text exposition. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // sorted family names, rebuilt on registration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one metric name: its metadata plus every label combination
// seen so far.
type family struct {
	name      string
	help      string
	kind      string // counter | gauge | histogram
	labelKeys []string
	buckets   []float64 // histogram families only

	mu     sync.Mutex
	series map[string]any // joined label values -> *Counter | *Gauge | *Histogram | func() float64
	order  []string       // registration order of series keys; sorted at render
}

// lookup returns the family for name, creating it on first use, and
// panics if the name was already registered as a different kind or with
// different labels (a programming error: metric names are code, not
// input).
func (r *Registry) lookup(name, help, kind string, buckets []float64, labelKeys []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name:      name,
			help:      help,
			kind:      kind,
			labelKeys: append([]string(nil), labelKeys...),
			buckets:   append([]float64(nil), buckets...),
			series:    make(map[string]any),
		}
		r.families[name] = f
		r.names = append(r.names, name)
		sort.Strings(r.names)
		return f
	}
	if f.kind != kind || len(f.labelKeys) != len(labelKeys) {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s with %d labels (was %s with %d)",
			name, kind, len(labelKeys), f.kind, len(f.labelKeys)))
	}
	for i, k := range labelKeys {
		if f.labelKeys[i] != k {
			panic(fmt.Sprintf("obs: metric %q re-registered with label %q (was %q)", name, k, f.labelKeys[i]))
		}
	}
	return f
}

// series returns the metric value for one label combination, creating
// it with mk on first use.
func (f *family) seriesFor(labelValues []string, mk func() any) any {
	if len(labelValues) != len(f.labelKeys) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labelKeys), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = mk()
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// ----------------------------------------------------------------- counter

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (must be non-negative; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter returns the named unlabeled counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, "counter", nil, nil)
	return f.seriesFor(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ f *family }

// CounterVec returns the named labeled counter family.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	return &CounterVec{r.lookup(name, help, "counter", nil, labelKeys)}
}

// With returns the counter for one label-value combination.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.seriesFor(labelValues, func() any { return &Counter{} }).(*Counter)
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for monotonic numbers another subsystem already tracks (cache
// hit totals, session evictions) that would be wasteful to double-count.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, "counter", nil, nil)
	f.seriesFor(nil, func() any { return fn })
}

// ------------------------------------------------------------------- gauge

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (atomically, via CAS).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge returns the named unlabeled gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, "gauge", nil, nil)
	return f.seriesFor(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time (queue depth, resident sessions, registry size).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, "gauge", nil, nil)
	f.seriesFor(nil, func() any { return fn })
}

// --------------------------------------------------------------- histogram

// Histogram counts observations into fixed buckets (cumulative at
// render, per-bucket internally) and tracks their sum. All methods are
// safe for concurrent use; Observe is two atomic adds plus a CAS loop
// for the sum.
type Histogram struct {
	bounds []float64 // sorted upper bounds, +Inf implicit
	counts []atomic.Int64
	inf    atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	n := h.inf.Load()
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket where the cumulative count crosses q·total. The
// error is bounded by the width of that bucket. A rank that falls in the
// +Inf overflow bucket returns +Inf: the histogram genuinely does not
// know how large those observations were, and clamping to the last
// finite bound would silently under-report exactly the tail latencies
// the upper quantiles exist to expose. Returns NaN with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	cum := int64(0)
	lower := 0.0
	for i, ub := range h.bounds {
		c := h.counts[i].Load()
		if float64(cum)+float64(c) >= rank && c > 0 {
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + frac*(ub-lower)
		}
		cum += c
		lower = ub
	}
	return math.Inf(1) // rank falls in the +Inf overflow bucket
}

// Histogram returns the named unlabeled histogram, creating it with the
// given upper bounds (nil = DefBuckets) on first use.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets()
	}
	f := r.lookup(name, help, "histogram", buckets, nil)
	return f.seriesFor(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the named labeled histogram family (nil buckets
// = DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelKeys ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets()
	}
	return &HistogramVec{r.lookup(name, help, "histogram", buckets, labelKeys)}
}

// With returns the histogram for one label-value combination.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.seriesFor(labelValues, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// -------------------------------------------------------------- exposition

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4), families sorted by name and
// series by label values, so output is deterministic given the same
// registered state.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, _ = io.WriteString(w, b.String())
}

// Handler returns an http.Handler serving the exposition (the /metrics
// endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

func (f *family) write(b *strings.Builder) {
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	series := make([]any, len(keys))
	sort.Strings(keys)
	for i, k := range keys {
		series[i] = f.series[k]
	}
	f.mu.Unlock()
	if len(keys) == 0 {
		return
	}

	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for i, key := range keys {
		var labelValues []string
		if key != "" || len(f.labelKeys) > 0 {
			labelValues = strings.Split(key, "\x00")
		}
		switch s := series[i].(type) {
		case *Counter:
			writeSample(b, f.name, f.labelKeys, labelValues, "", "", float64(s.Value()))
		case *Gauge:
			writeSample(b, f.name, f.labelKeys, labelValues, "", "", s.Value())
		case func() float64:
			writeSample(b, f.name, f.labelKeys, labelValues, "", "", s())
		case *Histogram:
			cum := int64(0)
			for j, ub := range s.bounds {
				cum += s.counts[j].Load()
				writeSample(b, f.name+"_bucket", f.labelKeys, labelValues, "le", formatFloat(ub), float64(cum))
			}
			cum += s.inf.Load()
			writeSample(b, f.name+"_bucket", f.labelKeys, labelValues, "le", "+Inf", float64(cum))
			writeSample(b, f.name+"_sum", f.labelKeys, labelValues, "", "", s.Sum())
			writeSample(b, f.name+"_count", f.labelKeys, labelValues, "", "", float64(cum))
		}
	}
}

// writeSample renders one exposition line; extraKey/extraValue append a
// synthetic label (the histogram "le").
func writeSample(b *strings.Builder, name string, labelKeys, labelValues []string, extraKey, extraValue string, v float64) {
	b.WriteString(name)
	if len(labelKeys) > 0 || extraKey != "" {
		b.WriteByte('{')
		sep := false
		for i, k := range labelKeys {
			if sep {
				b.WriteByte(',')
			}
			sep = true
			b.WriteString(k)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(labelValues[i]))
			b.WriteByte('"')
		}
		if extraKey != "" {
			if sep {
				b.WriteByte(',')
			}
			b.WriteString(extraKey)
			b.WriteString(`="`)
			b.WriteString(extraValue)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
