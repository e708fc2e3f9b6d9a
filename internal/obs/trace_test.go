package obs

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanRecordsIntoTrace(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)

	s1 := StartSpan(ctx, "embed")
	time.Sleep(2 * time.Millisecond)
	d1 := s1.End()
	s2 := StartSpan(ctx, "verify")
	d2 := s2.End()

	phases := tr.Phases()
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(phases))
	}
	if phases[0].Name != "embed" || phases[1].Name != "verify" {
		t.Errorf("phase names = %q, %q", phases[0].Name, phases[1].Name)
	}
	if phases[0].Duration != d1 || phases[1].Duration != d2 {
		t.Error("phase durations do not match End() returns")
	}
	if phases[0].Duration < 2*time.Millisecond {
		t.Errorf("embed duration %v, want >= 2ms", phases[0].Duration)
	}
	if phases[0].Start != 0 {
		t.Errorf("first span start offset = %v, want 0", phases[0].Start)
	}
	if phases[1].Start < phases[0].Duration {
		t.Errorf("second span start %v before first span ended (%v)", phases[1].Start, phases[0].Duration)
	}
}

// phaseCount reads one phase's observation count off Default's exposition
// (0 before the phase's first span).
func phaseCount(t *testing.T, phase string) int {
	t.Helper()
	var b strings.Builder
	Default.WritePrometheus(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, `graphspar_phase_seconds_count{phase="`+phase+`"} `); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	return 0
}

func TestSpanWithoutTraceIsNoopButAggregates(t *testing.T) {
	before := phaseCount(t, "lonely")
	s := StartSpan(context.Background(), "lonely")
	if got := s.End(); got < 0 {
		t.Errorf("duration = %v", got)
	}
	if s.End() != 0 {
		t.Error("second End should be a no-op")
	}
	if got := phaseCount(t, "lonely"); got != before+1 {
		t.Errorf("aggregate observations = %d, want %d", got, before+1)
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			StartSpan(ctx, "shard").End()
		}()
	}
	wg.Wait()
	if got := len(tr.Phases()); got != 16 {
		t.Errorf("got %d phases, want 16", got)
	}
}
