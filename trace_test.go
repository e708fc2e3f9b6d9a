package graphspar_test

// Phase-trace coverage of the facade: every execution plan must return a
// populated Result.Phases, the single-shot Timings must be span-derived
// (Verify > 0: every Run certifies), and a caller-attached trace
// (NewTraceContext) must see the same spans the Result reports.

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"

	"graphspar"
	"graphspar/internal/gen"
)

// phaseNames collects the distinct phase names of a trace.
func phaseNames(phases []graphspar.Phase) map[string]int {
	names := make(map[string]int)
	for _, p := range phases {
		names[p.Name]++
	}
	return names
}

func TestRunPhasesSingleShot(t *testing.T) {
	g, err := gen.Grid2D(20, 20, gen.UniformWeights, 9)
	if err != nil {
		t.Fatal(err)
	}
	s, err := graphspar.New(
		graphspar.WithSigma2(60),
		graphspar.WithSeed(7),
		graphspar.WithMode(graphspar.ModeSingleShot),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	names := phaseNames(res.Phases)
	for _, want := range []string{"sparsify", "embed", "factor", "verify"} {
		if names[want] == 0 {
			t.Errorf("Phases missing %q (got %v)", want, names)
		}
	}
	if res.Timings.Sparsify <= 0 {
		t.Errorf("Timings.Sparsify = %v, want > 0", res.Timings.Sparsify)
	}
	if res.Timings.Verify <= 0 {
		t.Errorf("Timings.Verify = %v, want > 0 (every Run certifies)", res.Timings.Verify)
	}
	// The Verify timing is the verify span itself.
	for _, p := range res.Phases {
		if p.Name == "verify" && p.Duration != res.Timings.Verify {
			t.Errorf("verify phase duration %v != Timings.Verify %v", p.Duration, res.Timings.Verify)
		}
	}
}

func TestRunPhasesSharded(t *testing.T) {
	g, _, err := gen.SBM(4, 60, 0.2, 0.02, 13)
	if err != nil {
		t.Fatal(err)
	}
	s, err := graphspar.New(
		graphspar.WithSigma2(60),
		graphspar.WithSeed(7),
		graphspar.WithMode(graphspar.ModeSharded),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	names := phaseNames(res.Phases)
	for _, want := range []string{"partition", "shard", "stitch", "refilter", "factor", "verify"} {
		if names[want] == 0 {
			t.Errorf("Phases missing %q (got %v)", want, names)
		}
	}
	if res.Timings.Verify <= 0 {
		t.Errorf("Timings.Verify = %v, want > 0 (sharded default verification)", res.Timings.Verify)
	}

	// The phases must account for the run: on a mesh big enough that the
	// partition's materialisation (induced subgraphs, component scans) is
	// several percent of the wall time, the union of the spans covers at
	// least 98 % of it. Best of three, so one preempted gap cannot fail it.
	mesh, err := gen.Grid2D(96, 96, gen.UniformWeights, 9)
	if err != nil {
		t.Fatal(err)
	}
	s, err = graphspar.New(graphspar.WithSigma2(100), graphspar.WithSeed(7), graphspar.WithMode(graphspar.ModeSharded))
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for try := 0; try < 3 && best < 0.98; try++ {
		res, err := s.Run(context.Background(), mesh)
		if err != nil && !errors.Is(err, graphspar.ErrNoTarget) {
			t.Fatal(err)
		}
		if c := phaseCoverage(res.Phases, res.Timings.Wall); c > best {
			best = c
		}
	}
	if best < 0.98 {
		t.Errorf("phases cover %.3f of a sharded run's wall time, want ≥ 0.98", best)
	}
}

// phaseCoverage is the share of wall the union of the phase intervals
// covers.
func phaseCoverage(phases []graphspar.Phase, wall time.Duration) float64 {
	sorted := append([]graphspar.Phase(nil), phases...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var covered, end time.Duration
	for _, p := range sorted {
		if stop := p.Start + p.Duration; stop > end {
			covered += stop - max(end, p.Start)
			end = stop
		}
	}
	return float64(covered) / float64(wall)
}

// TestRunPhasesMultilevel: a multilevel run must emit the hierarchy
// phases — coarsen, the coarse sparsify, one interpolate +
// uncoarsen_refilter pair per finer level, and the per-level verify —
// into Result.Phases (and through them the shared phase histogram).
func TestRunPhasesMultilevel(t *testing.T) {
	// 32×32 ≈ 1k vertices: two levels of coarsening before the default
	// coarsest-size floor stops the hierarchy.
	g, err := gen.Grid2D(32, 32, gen.UniformWeights, 9)
	if err != nil {
		t.Fatal(err)
	}
	s, err := graphspar.New(
		graphspar.WithSigma2(60),
		graphspar.WithSeed(7),
		graphspar.WithMode(graphspar.ModeMultilevel),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Multilevel || res.Sharded {
		t.Fatalf("expected the multilevel path (Multilevel=%v Sharded=%v)", res.Multilevel, res.Sharded)
	}
	if res.CoarsenDepth < 2 {
		t.Fatalf("expected a real hierarchy, got depth %d", res.CoarsenDepth)
	}
	names := phaseNames(res.Phases)
	for _, want := range []string{"coarsen", "sparsify", "interpolate", "uncoarsen_refilter", "factor", "verify"} {
		if names[want] == 0 {
			t.Errorf("Phases missing %q (got %v)", want, names)
		}
	}
	finer := res.CoarsenDepth - 1
	if names["interpolate"] != finer {
		t.Errorf("got %d interpolate phases for depth %d, want %d", names["interpolate"], res.CoarsenDepth, finer)
	}
	if names["uncoarsen_refilter"] < finer {
		t.Errorf("got %d uncoarsen_refilter phases, want ≥ %d", names["uncoarsen_refilter"], finer)
	}
	if res.Timings.Coarsen <= 0 || res.Timings.Refilter <= 0 {
		t.Errorf("Timings.Coarsen = %v, Timings.Refilter = %v, want both > 0", res.Timings.Coarsen, res.Timings.Refilter)
	}
	if res.Timings.Verify <= 0 {
		t.Errorf("Timings.Verify = %v, want > 0 (multilevel default verification)", res.Timings.Verify)
	}
}

// TestNewTraceContextShared: a caller-attached trace collects the same
// spans Run reports, so a serving layer can observe phases without
// touching the Result.
func TestNewTraceContextShared(t *testing.T) {
	g, err := gen.Grid2D(12, 12, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := graphspar.New(graphspar.WithSigma2(80), graphspar.WithMode(graphspar.ModeSingleShot))
	if err != nil {
		t.Fatal(err)
	}
	ctx, tr := graphspar.NewTraceContext(context.Background())
	res, err := s.Run(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.Phases()
	if len(got) == 0 || len(got) != len(res.Phases) {
		t.Fatalf("caller trace has %d phases, result has %d", len(got), len(res.Phases))
	}
	for i := range got {
		if got[i] != res.Phases[i] {
			t.Errorf("phase %d: trace %+v != result %+v", i, got[i], res.Phases[i])
		}
	}
}

// TestSequentialRunsOnOneTrace: two Runs in turn on one caller trace each
// return only their own spans, while the trace collects both.
func TestSequentialRunsOnOneTrace(t *testing.T) {
	g, err := gen.Grid2D(12, 12, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := graphspar.New(graphspar.WithSigma2(80), graphspar.WithMode(graphspar.ModeSingleShot))
	if err != nil {
		t.Fatal(err)
	}
	ctx, tr := graphspar.NewTraceContext(context.Background())
	var runs [2][]graphspar.Phase
	for i := range runs {
		res, err := s.Run(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		if n := phaseNames(res.Phases)["verify"]; n != 1 {
			t.Fatalf("run %d: %d verify phases, want 1 (%v)", i, n, phaseNames(res.Phases))
		}
		runs[i] = res.Phases
	}
	if len(runs[0]) != len(runs[1]) {
		t.Fatalf("runs returned %d and %d phases", len(runs[0]), len(runs[1]))
	}
	got := tr.Phases()
	if len(got) != 2*len(runs[0]) {
		t.Fatalf("trace holds %d phases, want both runs' %d", len(got), 2*len(runs[0]))
	}
	for i, p := range append(runs[0], runs[1]...) {
		if got[i] != p {
			t.Errorf("trace phase %d: %+v, run reported %+v", i, got[i], p)
		}
	}
}
