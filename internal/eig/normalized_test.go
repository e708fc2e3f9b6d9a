package eig

import (
	"math"
	"testing"

	"graphspar/internal/cholesky"
	"graphspar/internal/gen"
	"graphspar/internal/testkit/fixture"
	"graphspar/internal/vecmath"
)

func TestNormalizedPairsRegularGraphMatchesUnnormalized(t *testing.T) {
	// On a d-regular unit-weight graph, D = dI, so the normalized
	// eigenvalues are exactly λ(L)/d with identical eigenvectors.
	n := 16
	g, err := fixture.Cycle(n) // 2-regular
	if err != nil {
		t.Fatal(err)
	}
	ls, err := cholesky.NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	k := 3
	valsN, _, err := SmallestPairsNormalized(g, k, ls, n-1, 5)
	if err != nil {
		t.Fatal(err)
	}
	valsU, _, err := SmallestPairs(g, k, ls, n-1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		want := valsU[i] / 2
		if math.Abs(valsN[i]-want) > 1e-8*(1+want) {
			t.Fatalf("normalized λ_%d = %v, want %v", i, valsN[i], want)
		}
	}
}

func TestNormalizedPairsResiduals(t *testing.T) {
	// Verify L v = λ D v residuals directly on a weighted graph.
	g, err := gen.Grid2D(6, 7, gen.UniformWeights, 9)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := cholesky.NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	k := 4
	vals, vecs, err := SmallestPairsNormalized(g, k, ls, g.N()-1, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := g.WeightedDegrees()
	n := g.N()
	lv := make([]float64, n)
	for i := 0; i < k; i++ {
		g.LapMulVec(lv, vecs[i])
		for p := 0; p < n; p++ {
			lv[p] -= vals[i] * d[p] * vecs[i][p]
		}
		if r := vecmath.Norm2(lv); r > 1e-6 {
			t.Fatalf("pair %d residual %v", i, r)
		}
	}
	// Eigenvalues of the normalized pencil lie in [0, 2] and ascend.
	for i := 0; i < k; i++ {
		if vals[i] <= 0 || vals[i] > 2+1e-9 {
			t.Fatalf("normalized eigenvalue %v outside (0, 2]", vals[i])
		}
		if i > 0 && vals[i] < vals[i-1]-1e-12 {
			t.Fatal("eigenvalues not ascending")
		}
	}
}

func TestNormalizedPairsDVOrthogonality(t *testing.T) {
	// Eigenvectors of the pencil are D-orthogonal to 1: Σ d_i v_i = 0.
	g, err := gen.TriMesh(6, 6, gen.UniformWeights, 11)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := cholesky.NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	_, vecs, err := SmallestPairsNormalized(g, 3, ls, g.N()-1, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := g.WeightedDegrees()
	for i, v := range vecs {
		var s float64
		for p := range v {
			s += d[p] * v[p]
		}
		if math.Abs(s) > 1e-8 {
			t.Fatalf("vector %d not D-orthogonal to 1: %v", i, s)
		}
	}
}

func TestNormalizedPairsValidation(t *testing.T) {
	g, _ := fixture.Path(6)
	ls, _ := cholesky.NewLapSolver(g)
	if _, _, err := SmallestPairsNormalized(g, 0, ls, 10, 1); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, _, err := SmallestPairsNormalized(g, 6, ls, 10, 1); err == nil {
		t.Fatal("k=n should fail")
	}
}
