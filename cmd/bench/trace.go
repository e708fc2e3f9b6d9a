package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"graphspar"
)

// Span is one harness-side interval: an op (Parent == 0, layer "harness"),
// a stage span around one public call the op is made of, or a phase the
// program itself reported in Result.Phases and the harness re-parented
// under the call that returned it. Spans of one op share Op.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced pass runs the same op code without a branch at
// every call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginOp opens the root span of one op and returns its id (0 when
// tracing is off).
func (t *tracer) beginOp(op int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Op: op, Name: "op", Layer: "harness", StartNs: t.now()})
	return id
}

// begin opens a stage span under parent, in parent's op.
func (t *tracer) begin(parent int, name, layer string) int {
	if t == nil || parent == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: t.spans[parent-1].Op, Name: name, Layer: layer, StartNs: t.now()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// phaseLayer maps the program's own phase names to the layer that does
// the work, so a Run's reported phases land in the same per-layer table
// as the harness's stage spans.
var phaseLayer = map[string]string{
	"sparsify":           "core",
	"embed":              "core",
	"verify":             "core",
	"refilter":           "core",
	"uncoarsen_refilter": "core",
	"partition":          "partition",
	"shard":              "engine",
	"stitch":             "engine",
	"coarsen":            "multilevel",
	"interpolate":        "multilevel",
	"settle":             "dynamic",
}

// addPhases re-parents the phases a facade call reported under the stage
// span that wrapped the call. Phases arrive flat with offsets from the
// first phase; nesting is rebuilt from containment (a phase's parent is
// the most recently started phase that encloses it), which also places
// the concurrent per-shard phases under "shard".
func (t *tracer) addPhases(parent int, phases []graphspar.Phase) {
	if t == nil || parent == 0 || len(phases) == 0 {
		return
	}
	ps := append([]graphspar.Phase(nil), phases...)
	sort.SliceStable(ps, func(i, j int) bool {
		if ps[i].Start != ps[j].Start {
			return ps[i].Start < ps[j].Start
		}
		return ps[i].Duration > ps[j].Duration
	})
	t.mu.Lock()
	defer t.mu.Unlock()
	base, op := t.spans[parent-1].StartNs, t.spans[parent-1].Op
	type open struct {
		id  int
		end int64
	}
	var stack []open
	for _, p := range ps {
		start, end := base+int64(p.Start), base+int64(p.Start+p.Duration)
		par := parent
		for i := len(stack) - 1; i >= 0; i-- {
			if stack[i].end >= end {
				par = stack[i].id
				break
			}
		}
		layer := phaseLayer[p.Name]
		if layer == "" {
			layer = "graphspar"
		}
		id := len(t.spans) + 1
		t.spans = append(t.spans, Span{ID: id, Parent: par, Op: op, Name: p.Name, Layer: layer, StartNs: start, EndNs: end})
		stack = append(stack, open{id, end})
	}
}

// selfTimes returns each span's duration minus the part of it its
// children cover (the union of their intervals, so concurrent children
// are not counted twice).
func selfTimes(spans []Span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			p := spans[s.Parent-1]
			lo, hi := max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNs - s.StartNs - unionLen(kids[s.ID])
	}
	return self
}

func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// stageCoverage is Σ stage-span self time ÷ traced op wall: one minus the
// share of op time no stage span accounts for.
func stageCoverage(spans []Span) float64 {
	self := selfTimes(spans)
	var opWall, opSelf int64
	for i, s := range spans {
		if s.Parent == 0 {
			opWall += s.EndNs - s.StartNs
			opSelf += self[i]
		}
	}
	if opWall == 0 {
		return 0
	}
	return 1 - float64(opSelf)/float64(opWall)
}

// traceFile is the trace.json shape.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []Span `json:"spans"`
}

func writeTrace(path, workload string, seed uint64, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(traceFile{workload, seed, spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerReport prints the self-time table of one traced run: where the
// traced ops' wall time went, by layer and span name.
func layerReport(w io.Writer, workload string, spans []Span, coverage, overhead float64) {
	self := selfTimes(spans)
	type row struct {
		key   string
		spans int
		self  int64
	}
	var rows []row
	index := map[string]int{}
	var opWall int64
	for i, s := range spans {
		if s.Parent == 0 {
			opWall += s.EndNs - s.StartNs
		}
		key := s.Layer + " · " + s.Name
		j, ok := index[key]
		if !ok {
			j = len(rows)
			index[key] = j
			rows = append(rows, row{key: key})
		}
		rows[j].spans++
		rows[j].self += self[i]
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	fmt.Fprintf(w, "\nself time by layer and span, %s (traced op wall %.1f ms)\n", workload, float64(opWall)/1e6)
	fmt.Fprintf(w, "%-36s %8s %12s %8s\n", "layer · span", "spans", "self ms", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %8d %12.2f %7.1f%%\n", r.key, r.spans, float64(r.self)/1e6, 100*float64(r.self)/float64(opWall))
	}
	fmt.Fprintf(w, "trace.stage_coverage_share %.4f\n", coverage)
	fmt.Fprintf(w, "trace.overhead_share %.4f\n", overhead)
}
