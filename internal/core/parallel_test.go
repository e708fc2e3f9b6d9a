package core

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"graphspar/internal/cholesky"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/lsst"
)

// embedOffTreeRef is the sequential embedding as it stood before the one
// loop: each probe started, advanced t steps and folded into the heats as
// a stored per-probe contribution, in probe order. The oracle the worker
// matrix is stated against.
func embedOffTreeRef(g *graph.Graph, solver Solver, offIDs []int, t, r int, seed uint64) ([][]float64, []float64, float64) {
	probes := make([][]float64, r)
	heats := make([]float64, len(offIDs))
	y := make([]float64, g.N())
	out := make([]float64, len(offIDs))
	for j := range probes {
		h := make([]float64, g.N())
		startProbe(h, seed, j)
		powerSteps(g, solver, h, y, t)
		for i, id := range offIDs {
			e := g.Edge(id)
			d := h[e.U] - h[e.V]
			out[i] = e.W * d * d
		}
		for i, v := range out {
			heats[i] += v
		}
		probes[j] = h
	}
	var maxHeat float64
	for _, v := range heats {
		maxHeat = max(maxHeat, v)
	}
	return probes, heats, maxHeat
}

// opaqueSolver hides its solver's type, so sessionSolver finds no
// concurrency-safe session for it, and counts overlapping Solve calls.
type opaqueSolver struct {
	s        Solver
	inFlight atomic.Int32
	overlaps atomic.Int32
}

func (o *opaqueSolver) Solve(x, b []float64) {
	if o.inFlight.Add(1) > 1 {
		o.overlaps.Add(1)
	}
	o.s.Solve(x, b)
	o.inFlight.Add(-1)
}

// TestEmbedParallelBitIdentical: the one embedding loop must reproduce the
// reference bit for bit — probe vectors, heats and their maximum, after
// the build and after a warm Step — for every worker count (below, at and
// past the probe count) and every kind of solver: the shared tree, a
// Cholesky factor solved through sessions, and an opaque solver without
// one. Run under -race this is also the proof that probe j has exactly
// one writer.
func TestEmbedParallelBitIdentical(t *testing.T) {
	g, err := gen.Grid2D(14, 14, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	backbone, _, offIDs, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	chol, err := cholesky.NewLapSolver(backbone.Graph())
	if err != nil {
		t.Fatal(err)
	}
	const tt, r, seed = 2, 6, 42
	for _, solver := range []Solver{backbone, chol, &opaqueSolver{s: backbone}} {
		wantProbes, want, wantMax := embedOffTreeRef(g, solver, offIDs, tt, r, seed)
		steppedProbes, stepped, _ := embedOffTreeRef(g, solver, offIDs, tt+1, r, seed)
		for _, workers := range []int{1, 2, 3, r, r + 5} {
			check := func(stage string, sc *EdgeScorer, probes [][]float64, heats []float64) {
				t.Helper()
				got, _ := sc.Score(g, offIDs)
				if !slices.Equal(got, heats) {
					t.Fatalf("workers=%d solver=%T %s: heats differ from the reference", workers, solver, stage)
				}
				for j := range probes {
					if !slices.Equal(sc.Probes[j], probes[j]) {
						t.Fatalf("workers=%d solver=%T %s: probe %d differs from the reference", workers, solver, stage, j)
					}
				}
			}
			sc := NewEdgeScorer(g, solver, tt, r, seed, workers)
			check("build", sc, wantProbes, want)
			if _, gotMax := sc.Score(g, offIDs); gotMax != wantMax {
				t.Fatalf("workers=%d solver=%T: maxHeat %v != %v", workers, solver, gotMax, wantMax)
			}
			sc.Step(g, solver, workers)
			check("step", sc, steppedProbes, stepped)
		}
	}
}

// TestEmbedParallelUnsafeSolverFallsBack: a solver without a concurrent
// session is never entered by two goroutines, whatever the worker count,
// and still produces the reference heats.
func TestEmbedParallelUnsafeSolverFallsBack(t *testing.T) {
	g, err := gen.Grid2D(10, 10, gen.UniformWeights, 5)
	if err != nil {
		t.Fatal(err)
	}
	backbone, _, offIDs, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := EmbedOffTree(g, backbone, offIDs, 1, 4, 7)
	opaque := &opaqueSolver{s: backbone}
	sc := NewEdgeScorer(g, opaque, 1, 4, 7, 4)
	sc.Step(g, opaque, 4)
	if n := opaque.overlaps.Load(); n != 0 {
		t.Fatalf("%d overlapping Solve calls on a solver without a session", n)
	}
	got, _ := NewEdgeScorer(g, opaque, 1, 4, 7, 4).Score(g, offIDs)
	if !slices.Equal(got, want) {
		t.Fatal("heats through an opaque solver differ")
	}
}

// TestSparsifyEmbedWorkersBitIdentical: the EmbedWorkers knob must never
// change which edges the sparsifier keeps.
func TestSparsifyEmbedWorkersBitIdentical(t *testing.T) {
	g, err := gen.Grid2D(20, 20, gen.UniformWeights, 2)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Sparsify(g, Options{SigmaSq: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sparsify(g, Options{SigmaSq: 60, Seed: 4, EmbedWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Sparsifier.M() != par.Sparsifier.M() {
		t.Fatalf("edge counts differ: %d vs %d", seq.Sparsifier.M(), par.Sparsifier.M())
	}
	idx := seq.Sparsifier.EdgeIndex()
	for _, e := range par.Sparsifier.Edges() {
		if _, ok := idx[[2]int{e.U, e.V}]; !ok {
			t.Fatalf("edge (%d,%d) kept only with EmbedWorkers", e.U, e.V)
		}
	}
	if seq.SigmaSqAchieved != par.SigmaSqAchieved {
		t.Fatalf("achieved σ² differ: %v vs %v", seq.SigmaSqAchieved, par.SigmaSqAchieved)
	}
}

// TestSparsifyCtxCancellation: a canceled context stops the densification
// loop and surfaces ctx.Err().
func TestSparsifyCtxCancellation(t *testing.T) {
	g, err := gen.Grid2D(16, 16, gen.UniformWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SparsifyCtx(ctx, g, Options{SigmaSq: 50, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The plain entry point is unaffected.
	if _, err := Sparsify(g, Options{SigmaSq: 50, Seed: 1}); err != nil {
		t.Fatalf("Sparsify after cancel test: %v", err)
	}
}
