package gsp

import (
	"errors"
	"math"
	"testing"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/gen"
	"graphspar/internal/testkit/fixture"
	"graphspar/internal/vecmath"
)

func TestTikhonovSmooths(t *testing.T) {
	g, err := gen.Grid2D(10, 10, gen.UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	rng := vecmath.NewRNG(3)
	noisy := make([]float64, n)
	rng.FillNormal(noisy)
	filtered, err := TikhonovFilter(g, noisy, 5.0, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	// The Rayleigh quotient xᵀLx / xᵀx: small for low-frequency signals.
	s0 := g.LapQuadForm(noisy) / vecmath.Dot(noisy, noisy)
	s1 := g.LapQuadForm(filtered) / vecmath.Dot(filtered, filtered)
	if s1 >= s0 {
		t.Fatalf("filtering must reduce smoothness quotient: %v vs %v", s1, s0)
	}
}

func TestTikhonovValidation(t *testing.T) {
	g, _ := fixture.Path(5)
	if _, err := TikhonovFilter(g, make([]float64, 3), 1, 1e-8); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := TikhonovFilter(g, make([]float64, 5), -1, 1e-8); err == nil {
		t.Fatal("negative alpha should fail")
	}
}

func TestFilterAgreementSparsifier(t *testing.T) {
	g, err := gen.Grid2D(14, 14, gen.UniformWeights, 5)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := core.Sparsify(g, core.Options{SigmaSq: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := core.Sparsify(g, core.Options{SigmaSq: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := vecmath.NewRNG(7)
	s := make([]float64, g.N())
	rng.FillNormal(s)
	relTight, err := FilterAgreement(g, tight.Sparsifier, s, 10.0)
	if err != nil {
		t.Fatal(err)
	}
	relLoose, err := FilterAgreement(g, loose.Sparsifier, s, 10.0)
	if err != nil {
		t.Fatal(err)
	}
	// Tighter spectral similarity must track the low-pass output better.
	if relTight >= relLoose {
		t.Fatalf("σ²=5 disagreement %v should beat σ²=200's %v", relTight, relLoose)
	}
	// And the sparsifier must beat the bare spanning tree.
	relTree, err := FilterAgreement(g, tight.Tree.Graph(), s, 10.0)
	if err != nil {
		t.Fatal(err)
	}
	if relTight >= relTree {
		t.Fatalf("sparsifier (%v) should beat bare tree (%v)", relTight, relTree)
	}
}

func TestSpectralDrawingGrid(t *testing.T) {
	g, err := gen.Grid2D(6, 14, gen.UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := cholesky.NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	coords, err := SpectralDrawing(g, ls, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(coords) != g.N() {
		t.Fatal("coordinate count wrong")
	}
	// For an elongated grid, u₂ orders vertices along the long axis: the
	// x-coordinates of column 0 and column 13 should have opposite signs.
	left := coords[0][0]
	right := coords[13][0]
	if left*right >= 0 {
		t.Fatalf("drawing does not separate the grid ends: %v vs %v", left, right)
	}
}

func TestSpectralDrawingTooSmall(t *testing.T) {
	g, _ := fixture.Path(2)
	ls, _ := cholesky.NewLapSolver(g)
	if _, err := SpectralDrawing(g, ls, 1); err == nil {
		t.Fatal("tiny graph should fail")
	}
}

func TestDrawingCorrelationSelf(t *testing.T) {
	g, err := gen.Grid2D(8, 10, gen.UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := cholesky.NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	a, err := SpectralDrawing(g, ls, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DrawingCorrelation(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-1) > 1e-9 {
		t.Fatalf("self correlation %v, want 1", c)
	}
	if _, err := DrawingCorrelation(a, a[:3]); err == nil {
		t.Fatal("size mismatch should fail")
	}
}

func TestDrawingSparsifierMatchesOriginal(t *testing.T) {
	// The Fig. 1 claim: sparsifier drawings resemble the original's.
	g, _, err := gen.Annulus(8, 24, gen.UnitWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Sparsify(g, core.Options{SigmaSq: 15, Seed: 5})
	if err != nil && !errors.Is(err, core.ErrNoTarget) {
		t.Fatal(err)
	}
	lsG, err := cholesky.NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	lsP, err := cholesky.NewLapSolver(res.Sparsifier)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := SpectralDrawing(g, lsG, 7)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := SpectralDrawing(res.Sparsifier, lsP, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DrawingCorrelation(dg, dp)
	if err != nil {
		t.Fatal(err)
	}
	if c < 0.7 {
		t.Fatalf("drawing correlation %v < 0.7; sparsifier layout diverged", c)
	}
}
