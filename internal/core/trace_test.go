package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"graphspar/internal/cholesky"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/lsst"
	"graphspar/internal/vecmath"
)

// EstimateTrace computes a Hutchinson estimate of Trace(L_P⁺ L_G) with the
// given number of Rademacher probes: trace ≈ mean_j zⱼᵀ L_P⁺ L_G zⱼ.
// By eq. 4 this equals the total stretch st_P(G) when P is a spanning
// tree, which the tests exploit as an exact cross-check against the
// LCA-based stretch computation.
func EstimateTrace(g *graph.Graph, solver Solver, probes int, seed uint64) (float64, error) {
	if probes < 1 {
		return 0, errors.New("core: need at least one probe")
	}
	n := g.N()
	rng := vecmath.NewRNG(seed)
	z := make([]float64, n)
	y := make([]float64, n)
	w := make([]float64, n)
	var sum float64
	for j := 0; j < probes; j++ {
		rng.FillRademacher(z)
		vecmath.Deflate(z)
		g.LapMulVec(y, z)  // y = L_G z
		solver.Solve(w, y) // w = L_P⁺ L_G z
		sum += vecmath.Dot(z, w)
	}
	return sum / float64(probes), nil
}

func TestEstimateTraceMatchesStretchOnTree(t *testing.T) {
	// Eq. 4: Trace(L_P⁺L_G) = st_P(G) for a spanning tree P. Hutchinson
	// with many probes must land close to the exact LCA-based stretch.
	g, err := gen.Grid2D(10, 10, gen.UniformWeights, 91)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, _, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	exact := tr.TotalStretch(g)
	est, err := EstimateTrace(g, tr, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(est-exact) / exact; rel > 0.15 {
		t.Fatalf("Hutchinson trace %v vs exact stretch %v (rel %v)", est, exact, rel)
	}
}

func TestEstimateTraceIdentityOperator(t *testing.T) {
	// P = G makes L_P⁺L_G a projector with trace n-1.
	g, err := gen.Grid2D(7, 7, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := cholesky.NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateTrace(g, solver, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(g.N() - 1)
	if math.Abs(est-want)/want > 0.1 {
		t.Fatalf("trace of projector = %v, want ≈ %v", est, want)
	}
}

func TestEstimateTraceValidation(t *testing.T) {
	g, _ := gen.Path(5)
	tr, _, _, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateTrace(g, tr, 0, 1); err == nil {
		t.Fatal("zero probes should fail")
	}
}

// Property: Hutchinson trace is within noise of the exact value across
// random trees (tree solver is exact, so the only error is stochastic).
func TestQuickTraceVsStretch(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vecmath.NewRNG(seed)
		rows, cols := 4+rng.Intn(4), 4+rng.Intn(4)
		g, err := gen.Grid2D(rows, cols, gen.UniformWeights, seed)
		if err != nil {
			return false
		}
		tr, _, _, err := lsst.Extract(g, lsst.MaxWeight, seed)
		if err != nil {
			return false
		}
		exact := tr.TotalStretch(g)
		est, err := EstimateTrace(g, tr, 300, seed+1)
		if err != nil {
			return false
		}
		return math.Abs(est-exact)/exact < 0.35
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
