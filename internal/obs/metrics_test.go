package obs

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestExpositionGolden locks the Prometheus text rendering: family
// ordering, HELP/TYPE lines, label escaping, histogram buckets with
// cumulative counts, _sum and _count.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	for range 3 {
		r.CounterVec("test_requests_total", "Total requests.").With().Inc()
	}
	cv := r.CounterVec("test_errors_total", "Errors by kind.", "kind")
	cv.With("bad\"quote").Inc()
	cv.With("timeout").Inc()
	cv.With("timeout").Inc()
	r.GaugeFunc("test_depth", "Queue depth.", func() float64 { return 7.5 })
	r.GaugeFunc("test_resident", "Resident things.", func() float64 { return 42 })
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(100)

	var b strings.Builder
	r.WritePrometheus(&b)
	got := b.String()
	want := `# HELP test_depth Queue depth.
# TYPE test_depth gauge
test_depth 7.5
# HELP test_errors_total Errors by kind.
# TYPE test_errors_total counter
test_errors_total{kind="bad\"quote"} 1
test_errors_total{kind="timeout"} 2
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 3
test_latency_seconds_bucket{le="10"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 101.05
test_latency_seconds_count 4
# HELP test_requests_total Total requests.
# TYPE test_requests_total counter
test_requests_total 3
# HELP test_resident Resident things.
# TYPE test_resident gauge
test_resident 42
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExpositionValidLines sanity-checks every non-comment line against
// the name{labels} value shape a scraper parses.
func TestExpositionValidLines(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("a_total", "a", "x", "y").With(`multi
line`, `back\slash`).Inc()
	hv := r.HistogramVec("b_seconds", "b", DefBuckets(), "route")
	hv.With("/v1/jobs").Observe(0.42)

	var b strings.Builder
	r.WritePrometheus(&b)
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.ContainsAny(line, "\r") || strings.Count(line, " ") < 1 {
			t.Errorf("malformed exposition line: %q", line)
		}
		name, rest, _ := strings.Cut(line, "{")
		if !strings.Contains(line, "{") {
			name, rest, _ = strings.Cut(line, " ")
		}
		if name == "" || rest == "" {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("h_total", "h").With().Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "h_total 1") {
		t.Errorf("body missing sample:\n%s", rec.Body.String())
	}
}

// TestLookupIdempotent: the same name yields the same handle; a
// conflicting re-registration panics.
func TestLookupIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.CounterVec("same_total", "x").With()
	b := r.CounterVec("same_total", "x").With()
	if a != b {
		t.Fatal("same counter name returned distinct handles")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("handles do not share state")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-registration did not panic")
		}
	}()
	r.GaugeFunc("same_total", "x", func() float64 { return 0 })
}

// TestConcurrentUpdates exercises counters, a gauge and histograms from
// many goroutines; run under -race this is the data-race check, and the
// final totals prove no increment was lost.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("cc_total", "c").With()
	cv := r.CounterVec("ccv_total", "c", "who")
	var depth atomic.Int64
	r.GaugeFunc("cg", "g", func() float64 { return float64(depth.Load()) })
	h := r.Histogram("ch_seconds", "h", []float64{0.5})
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			who := string(rune('a' + w%2))
			for i := 0; i < per; i++ {
				c.Inc()
				cv.With(who).Inc()
				depth.Add(1)
				h.Observe(float64(i%2) * 0.9)
				// Render concurrently with writes to shake out races in
				// the exposition path too.
				if i == per/2 {
					var b strings.Builder
					r.WritePrometheus(&b)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if got := cv.With("a").Value() + cv.With("b").Value(); got != workers*per {
		t.Errorf("vec counters = %d, want %d", got, workers*per)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	if want := fmt.Sprintf("\ncg %d\n", workers*per); !strings.Contains(b.String(), want) {
		t.Errorf("gauge sample missing %q:\n%s", want, b.String())
	}
	if want := fmt.Sprintf("\nch_seconds_count %d\n", workers*per); !strings.Contains(b.String(), want) {
		t.Errorf("histogram count sample missing %q:\n%s", want, b.String())
	}
}
