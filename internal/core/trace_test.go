package core

import (
	"math"
	"testing"
	"testing/quick"

	"graphspar/internal/cholesky"
	"graphspar/internal/gen"
	"graphspar/internal/lsst"
	"graphspar/internal/vecmath"
)

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

func TestRefineLambdaMinNeverWorse(t *testing.T) {
	g, err := gen.Grid2D(9, 9, gen.UniformWeights, 13)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, _, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := tr.Graph()
	base := EstimateLambdaMin(g, p)
	refined := RefineLambdaMin(g, p, 20)
	if refined > base+1e-12 {
		t.Fatalf("refinement made the bound worse: %v > %v", refined, base)
	}
	// Still a valid upper bound on λmin ≥ 1 territory: must stay ≥ 1
	// because P ⊆ G (any coloring ratio is ≥ 1).
	if refined < 1-1e-9 {
		t.Fatalf("refined bound %v dropped below 1 for a subgraph", refined)
	}
	if got := RefineLambdaMin(g, p, 0); got != base {
		t.Fatalf("sweeps=0 must return the base bound")
	}
}

// Property: the refined coloring bound stays an upper bound of the true
// λmin (estimated by a long generalized Lanczos from below).
func TestQuickRefineLambdaMinUpperBound(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.Grid2D(5, 6, gen.UniformWeights, seed)
		if err != nil {
			return false
		}
		tr, _, _, err := lsst.Extract(g, lsst.MaxWeight, seed)
		if err != nil {
			return false
		}
		p := tr.Graph()
		refined := RefineLambdaMin(g, p, 10)
		// For subgraph sparsifiers the exact λmin ≥ 1; any coloring ratio
		// is an upper bound. Verify ≥ 1 and finite.
		return refined >= 1-1e-9 && !math.IsInf(refined, 0) && !math.IsNaN(refined)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
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
