package pcg

import (
	"fmt"
	"math"
	"testing"

	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/lsst"
	"graphspar/internal/vecmath"
)

// solveRef is Solve's loop as it stood before its passes were fused,
// copied verbatim: ap deflated after every product, x and r updated by
// two Axpys, r, then z, deflated in passes of their own, and the
// residual measured by vecmath.Norm2. It is the oracle the fused loop's
// iterate is compared with.
func solveRef(a Operator, m Preconditioner, x, b []float64, opt Options) (Result, error) {
	n := a.Dim()
	if len(x) != n || len(b) != n {
		panic("pcg: dimension mismatch")
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-10
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10 * n
	}
	if m == nil {
		m = Identity{}
	}

	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	if opt.Deflate {
		vecmath.Deflate(b)
		vecmath.Deflate(x)
	}
	normB := vecmath.Norm2(b)
	if normB == 0 {
		vecmath.Zero(x)
		return Result{Iterations: 0, Residual: 0, Converged: true}, nil
	}

	a.Apply(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	if opt.Deflate {
		vecmath.Deflate(r)
	}
	m.Precondition(z, r)
	if opt.Deflate {
		vecmath.Deflate(z)
	}
	copy(p, z)
	rz := vecmath.Dot(r, z)

	rel := vecmath.Norm2(r) / normB
	if rel <= opt.Tol {
		return Result{Iterations: 0, Residual: rel, Converged: true}, nil
	}

	for it := 1; it <= opt.MaxIter; it++ {
		a.Apply(ap, p)
		if opt.Deflate {
			vecmath.Deflate(ap)
		}
		pap := vecmath.Dot(p, ap)
		if pap <= 0 {
			// Breakdown: operator not PD on this subspace (or numerical
			// exhaustion). Report what we have.
			return Result{Iterations: it - 1, Residual: rel, Converged: false},
				fmt.Errorf("pcg: breakdown pᵀAp = %v at iteration %d", pap, it)
		}
		alpha := rz / pap
		vecmath.Axpy(alpha, p, x)
		vecmath.Axpy(-alpha, ap, r)
		if opt.Deflate {
			vecmath.Deflate(r)
		}
		rel = vecmath.Norm2(r) / normB
		if opt.Residual != nil {
			opt.Residual(it, rel)
		}
		if rel <= opt.Tol {
			if opt.Deflate {
				vecmath.Deflate(x)
			}
			return Result{Iterations: it, Residual: rel, Converged: true}, nil
		}
		m.Precondition(z, r)
		if opt.Deflate {
			vecmath.Deflate(z)
		}
		rzNew := vecmath.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	if opt.Deflate {
		vecmath.Deflate(x)
	}
	return Result{Iterations: opt.MaxIter, Residual: rel, Converged: false}, ErrMaxIterations
}

// preconditioners returns Jacobi, the max-weight tree and the Cholesky
// factor of a sparsifier-shaped P (the tree plus every fourth off-tree
// edge) for g.
func preconditioners(t *testing.T, g *graph.Graph) []struct {
	name string
	m    Preconditioner
} {
	t.Helper()
	tr, _, offIDs, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	var extra []graph.Edge
	for i := 0; i < len(offIDs); i += 4 {
		extra = append(extra, g.Edge(offIDs[i]))
	}
	p, err := tr.Graph().AddEdges(extra)
	if err != nil {
		t.Fatal(err)
	}
	chol, err := NewCholPrecond(p)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		m    Preconditioner
	}{{"jacobi", NewJacobi(g)}, {"tree", TreePrecond{tr}}, {"cholesky", chol}}
}

// TestSolveMatchesUnfusedLoop: on a 24×24 grid with random weights, under
// Jacobi, tree and Cholesky preconditioning, the fused loop's iteration
// count is the old loop's or one off at every tolerance, and at tol 1e-12
// its solution is the old loop's to 1e-12 relative. At looser tolerances
// the two iterates differ by a small fraction of their own error (4e-9
// relative at 1e-6 under the tree: rounding steers the unconverged
// components), so the solutions are compared where both have converged.
func TestSolveMatchesUnfusedLoop(t *testing.T) {
	g, err := gen.Grid2D(24, 24, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	b := make([]float64, n)
	vecmath.NewRNG(5).FillNormal(b)
	for _, c := range preconditioners(t, g) {
		for _, tol := range []float64{1e-6, 1e-8, 1e-10, 1e-12} {
			x, want := make([]float64, n), make([]float64, n)
			res, err := SolveLaplacian(g, c.m, x, append([]float64(nil), b...), tol, 10*n)
			if err != nil {
				t.Fatalf("%s tol %g: %v", c.name, tol, err)
			}
			ref, err := solveRef(LapOperator{g}, c.m, want, append([]float64(nil), b...), Options{Tol: tol, MaxIter: 10 * n, Deflate: true})
			if err != nil {
				t.Fatalf("%s tol %g: old loop: %v", c.name, tol, err)
			}
			if d := res.Iterations - ref.Iterations; d < -1 || d > 1 {
				t.Errorf("%s tol %g: %d iterations, old loop %d", c.name, tol, res.Iterations, ref.Iterations)
			}
			if tol > 1e-12 {
				continue
			}
			diff := make([]float64, n)
			vecmath.Sub(diff, x, want)
			if rel := vecmath.Norm2(diff) / vecmath.Norm2(want); rel > 1e-12 {
				t.Errorf("%s tol %g: solution differs from the old loop's by %.2g relative", c.name, tol, rel)
			}
		}
	}
}

// TestSolveHugeResidualFallsBackToNorm2: with weights of 1e150 and a
// right-hand side scaled by 1e200, Σr² overflows while rᵀz and pᵀAp stay
// finite, so the residual is measured by vecmath.Norm2's scaled sum; the
// solve stops where the old loop stops (±1 iteration), under every
// preconditioner, at the old loop's solution. The tree row needs
// tree.Solve to start its potentials from a zero root: started from the
// root's rounding residual, every potential overflows at this scale.
func TestSolveHugeResidualFallsBackToNorm2(t *testing.T) {
	unit, err := gen.Grid2D(12, 12, gen.UniformWeights, 7)
	if err != nil {
		t.Fatal(err)
	}
	edges := unit.EdgesCopy()
	for i := range edges {
		edges[i].W *= 1e150
	}
	g, err := graph.New(unit.N(), edges)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	b := make([]float64, n)
	vecmath.NewRNG(9).FillNormal(b)
	vecmath.Deflate(b)
	vecmath.Scale(1e200, b)
	if ss := vecmath.Dot(b, b); !math.IsInf(ss, 1) {
		t.Fatalf("Σb² = %v; the case needs it to overflow", ss)
	}
	for _, c := range preconditioners(t, g) {
		x, want := make([]float64, n), make([]float64, n)
		res, err := SolveLaplacian(g, c.m, x, append([]float64(nil), b...), 1e-10, 10*n)
		if err != nil || !res.Converged {
			t.Fatalf("%s: %+v, %v", c.name, res, err)
		}
		ref, err := solveRef(LapOperator{g}, c.m, want, append([]float64(nil), b...), Options{Tol: 1e-10, MaxIter: 10 * n, Deflate: true})
		if err != nil {
			t.Fatalf("%s: old loop: %v", c.name, err)
		}
		// Without the fallback the residual reads +Inf until Σr² is
		// finite again, far past the target.
		if d := res.Iterations - ref.Iterations; d < -1 || d > 1 {
			t.Errorf("%s: %d iterations, old loop %d", c.name, res.Iterations, ref.Iterations)
		}
		diff := make([]float64, n)
		vecmath.Sub(diff, x, want)
		if rel := vecmath.Norm2(diff) / vecmath.Norm2(want); rel > 1e-12 {
			t.Errorf("%s: solution differs from the old loop's by %.2g relative", c.name, rel)
		}
	}
}
