package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"graphspar"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/pcg"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadContract(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

func sameDefs(t *testing.T, what string, got, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: BENCHMARK.json declares %d metrics, the harness %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", what, i, g, w)
		}
	}
}

func TestContractMatchesHarness(t *testing.T) {
	c := loadContract(t)
	sameDefs(t, "end_to_end", c.EndToEnd, endToEnd)
	sameDefs(t, "per_layer", c.PerLayer, perLayer)
	if c.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the op counts were frozen at %d", c.RunSeconds, refSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness {%s %s}", i, c.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
}

// TestPrintedMetrics runs every workload at -quick size, untraced and
// traced, and holds the printed metric set to the declared one.
func TestPrintedMetrics(t *testing.T) {
	t.Chdir(t.TempDir()) // the traced pass writes trace.json
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var out bytes.Buffer
			res, err := measure(context.Background(), w, options{seed: 1, seconds: refSeconds, trace: trace, quick: true, report: true}, &out)
			if err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", w.name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: result %+v", w.name, trace, res)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: printed %d metrics, declared %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%d: metric %s not printed", w.name, trace, d.Name)
				}
				if v.Unit != d.Unit {
					t.Errorf("%s: %s printed with unit %q, declared %q", w.name, d.Name, v.Unit, d.Unit)
				}
				if !nameRE.MatchString(d.Name) {
					t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
				}
				if trace == 0 && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, d.Name)
				}
			}
			if trace == 1 {
				if c := res.Metrics["trace.stage_coverage_share"].Value; c < 0.9 {
					t.Errorf("%s: stage spans cover %.3f of the traced op wall", w.name, c)
				}
				if _, err := os.Stat("trace.json"); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
	}
}

func TestSchedulesFollowSeed(t *testing.T) {
	ctx := context.Background()
	hash := func(w workloadDef, seed uint64) string {
		inst, err := w.setup(ctx, seed, w.opCount(refSeconds, true), true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		defer inst.close()
		return inst.scheduleHash()
	}
	for _, w := range workloads {
		a, b, c := hash(w, 7), hash(w, 7), hash(w, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave schedules %s and %s", w.name, a, b)
		}
		// -seed draws the right-hand sides; workloads whose op takes none
		// run a pinned schedule whatever the seed.
		if solves := w.name == "mesh_solve" || w.name == "sbm_multilevel"; solves == (a == c) {
			t.Errorf("%s: seeds 7 and 8 gave schedules %s and %s", w.name, a, c)
		}
	}
	// The generators themselves follow their seed.
	g, err := gen.Grid2D(16, 16, gen.UniformWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	b1, twin1, err := streamSchedule(g, 16, 3, 25)
	if err != nil {
		t.Fatal(err)
	}
	b2, twin2, _ := streamSchedule(g, 16, 3, 25)
	_, twin3, _ := streamSchedule(g, 16, 4, 25)
	if twin1.ContentHash() != twin2.ContentHash() || len(b1) != len(b2) {
		t.Error("stream schedule is not a function of its seed")
	}
	if twin1.ContentHash() == twin3.ContentHash() {
		t.Error("stream schedules of seeds 3 and 4 end on the same graph")
	}
	var c1, c2, c3 serveClient
	for cl, seed := range map[*serveClient]uint64{&c1: 3, &c2: 3, &c3: 4} {
		if err := cl.schedule(g, seed, 6); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(c1.txns[5].streamBody, c2.txns[5].streamBody) || c1.txns[5].afterPatch != c2.txns[5].afterPatch {
		t.Error("serve schedule is not a function of its seed")
	}
	if c1.txns[5].afterPatch == c3.txns[5].afterPatch {
		t.Error("serve schedules of seeds 3 and 4 end on the same graph")
	}
	for k, batch := range b1 {
		if len(batch) != batchUpdates {
			t.Errorf("batch %d has %d updates", k, len(batch))
		}
		inserts := 0
		for _, u := range batch {
			if u.Op == graphspar.OpInsert {
				inserts++
			}
		}
		if want := map[bool]int{true: 3, false: 0}[isChurn(k)]; inserts != want {
			t.Errorf("batch %d: %d inserts, want %d", k, inserts, want)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	if _, err := percentile(seq(9), 0.5); err == nil {
		t.Error("a median of 9 samples was accepted")
	}
	if _, err := percentile(seq(99), 0.90); err == nil {
		t.Error("p90 of 99 samples (9 beyond) was accepted")
	}
	if v, err := percentile(seq(100), 0.90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v", v, err)
	}
	if _, err := percentile(seq(400), 0.99); err == nil {
		t.Error("p99 of 400 samples (4 beyond) was accepted")
	}
	if v, err := percentile(seq(10), 0.5); err != nil || v != 5 {
		t.Errorf("median of 1..10 = %v, %v", v, err)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles(seq(10)); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, StartNs: 0, EndNs: 100, Layer: "harness"},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 90, Layer: "a"},
		{ID: 3, Parent: 2, StartNs: 20, EndNs: 50, Layer: "b"}, // two concurrent
		{ID: 4, Parent: 2, StartNs: 30, EndNs: 60, Layer: "b"}, // children
	}
	self := selfTimes(spans)
	if want := []int64{20, 40, 30, 30}; !slices.Equal(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if c := stageCoverage(spans); c != 0.8 {
		t.Errorf("stage coverage %v, want 0.8", c)
	}
}

// TestChecksTrip corrupts a sparsifier and a solution in each way a check
// guards against.
func TestChecksTrip(t *testing.T) {
	g, err := gen.Grid2D(6, 6, gen.UniformWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSparsifier(g, g); err != nil {
		t.Fatalf("G as its own sparsifier: %v", err)
	}
	edges := g.EdgesCopy()
	corrupt := map[string][]graph.Edge{
		"foreign edge": append(append([]graph.Edge(nil), edges...), graph.Edge{U: 0, V: 35, W: 1}),
		"wrong weight": append([]graph.Edge{{U: edges[0].U, V: edges[0].V, W: edges[0].W * 2}}, edges[1:]...),
	}
	var cut []graph.Edge // vertex 0 isolated
	for _, e := range edges {
		if e.U != 0 && e.V != 0 {
			cut = append(cut, e)
		}
	}
	corrupt["disconnected"] = cut
	for name, es := range corrupt {
		p, err := graph.New(g.N(), es)
		if err != nil {
			t.Fatal(err)
		}
		if checkSparsifier(g, p) == nil {
			t.Errorf("%s: corrupted sparsifier passed", name)
		}
	}
	small, _ := gen.Grid2D(5, 5, gen.UniformWeights, 1)
	if checkSparsifier(g, small) == nil {
		t.Error("sparsifier on another vertex set passed")
	}
	if checkSparsifier(g, nil) == nil {
		t.Error("missing sparsifier passed")
	}

	b := rhs(g.N(), 1)
	pre, err := pcg.NewCholPrecond(g)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, g.N())
	if _, err := pcg.SolveLaplacian(g, pre, x, b, solveTol, 0); err != nil {
		t.Fatal(err)
	}
	if err := checkSolution(g, x, b); err != nil {
		t.Fatalf("exact solution: %v", err)
	}
	x[3] += 1e-3
	if checkSolution(g, x, b) == nil {
		t.Error("perturbed solution passed")
	}

	if checkStreamReply([]byte(`{"applied":true,"target_met":true}`+"\n"+`{"done":true,"graph":{"hash":"abc"}}`), "abc") != nil {
		t.Error("good stream reply rejected")
	}
	for name, reply := range map[string]string{
		"twin hash":  `{"applied":true,"target_met":true}` + "\n" + `{"done":true,"graph":{"hash":"xyz"}}`,
		"rejected":   `{"rejected":true,"error":"bridge"}` + "\n" + `{"done":true,"graph":{"hash":"abc"}}`,
		"target":     `{"applied":true}` + "\n" + `{"done":true,"graph":{"hash":"abc"}}`,
		"no summary": `{"applied":true,"target_met":true}`,
	} {
		if checkStreamReply([]byte(reply), "abc") == nil {
			t.Errorf("%s: bad stream reply passed", name)
		}
	}

	// The twin check: a stream whose graph drifted from the local twin.
	inst, err := setupStreamMixed(context.Background(), 1, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	st := inst.(*streamInst)
	if _, err := st.finish(context.Background()); err == nil {
		t.Error("twin check passed before the schedule was applied")
	}
}
