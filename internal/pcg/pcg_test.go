package pcg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/lsst"
	"graphspar/internal/sparse"
	"graphspar/internal/testkit/fixture"
	"graphspar/internal/vecmath"
)

// csrOp adapts a sparse.CSR to the Operator interface for tests.
type csrOp struct{ m *sparse.CSR }

func (o csrOp) Apply(y, x []float64) { o.m.MulVec(y, x) }
func (o csrOp) Dim() int             { return o.m.Rows }

func TestCGSolvesSPD(t *testing.T) {
	b := sparse.NewBuilder(3, 3)
	b.Add(0, 0, 4)
	b.Add(1, 1, 3)
	b.Add(2, 2, 2)
	b.Add(0, 1, -1)
	b.Add(1, 0, -1)
	a := b.Build()
	rhs := []float64{1, 2, 3}
	x := make([]float64, 3)
	res, err := Solve(csrOp{a}, nil, x, rhs, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("should converge")
	}
	y := make([]float64, 3)
	a.MulVec(y, x)
	for i := range rhs {
		if math.Abs(y[i]-rhs[i]) > 1e-9 {
			t.Fatalf("Ax != b at %d", i)
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	g, _ := fixture.Path(5)
	x := []float64{1, 2, 3, 4, 5}
	res, err := SolveLaplacian(g, nil, x, make([]float64, 5), 1e-10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero RHS should converge instantly: %+v", res)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero RHS must produce zero solution")
		}
	}
}

func TestLaplacianSolveUnpreconditioned(t *testing.T) {
	g, err := gen.Grid2D(10, 10, gen.UniformWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	rng := vecmath.NewRNG(2)
	b := make([]float64, n)
	rng.FillNormal(b)
	vecmath.Deflate(b)
	x := make([]float64, n)
	res, err := SolveLaplacian(g, nil, x, b, 1e-9, 10*n)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG failed: %+v", res)
	}
	y := make([]float64, n)
	g.LapMulVec(y, x)
	if vecmath.RelResidual(residual(y, b), b) > 1e-8 {
		t.Fatal("solution inaccurate")
	}
}

func residual(ax, b []float64) []float64 {
	r := make([]float64, len(b))
	for i := range b {
		r[i] = b[i] - ax[i]
	}
	return r
}

func TestJacobiPreconditioner(t *testing.T) {
	g, _ := gen.Grid2D(8, 8, gen.UniformWeights, 3)
	j := NewJacobi(g)
	r := make([]float64, g.N())
	z := make([]float64, g.N())
	for i := range r {
		r[i] = 1
	}
	j.Precondition(z, r)
	d := g.WeightedDegrees()
	for i := range z {
		if math.Abs(z[i]*d[i]-1) > 1e-12 {
			t.Fatalf("Jacobi wrong at %d", i)
		}
	}
}

func TestTreePreconditionerAcceleratesCG(t *testing.T) {
	g, err := gen.Grid2D(20, 20, gen.LogUniform, 5)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	rng := vecmath.NewRNG(7)
	b := make([]float64, n)
	rng.FillNormal(b)
	vecmath.Deflate(b)

	solveWith := func(m Preconditioner) int {
		x := make([]float64, n)
		res, err := SolveLaplacian(g, m, x, append([]float64(nil), b...), 1e-8, 20*n)
		if err != nil {
			t.Fatalf("solve: %v (%+v)", err, res)
		}
		return res.Iterations
	}

	plain := solveWith(nil)
	tr, _, _, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	treeIts := solveWith(TreePrecond{tr})
	// On a heavy-tailed-weight grid the tree preconditioner should beat
	// plain CG noticeably.
	if treeIts >= plain {
		t.Fatalf("tree preconditioner not helping: %d vs %d iterations", treeIts, plain)
	}
}

func TestCholPreconditionerExactInOneIteration(t *testing.T) {
	// Preconditioning with the graph itself must converge in O(1) steps.
	g, err := gen.Grid2D(7, 7, gen.UniformWeights, 9)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewCholPrecond(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	b := make([]float64, n)
	vecmath.NewRNG(11).FillNormal(b)
	vecmath.Deflate(b)
	x := make([]float64, n)
	res, err := SolveLaplacian(g, m, x, b, 1e-10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 2 {
		t.Fatalf("exact preconditioner took %d iterations", res.Iterations)
	}
}

func TestNewCholPrecondRejectsDisconnected(t *testing.T) {
	g, _ := graph.New(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if _, err := NewCholPrecond(g); err == nil {
		t.Fatal("expected error")
	}
}

func TestMaxIterations(t *testing.T) {
	g, err := gen.Grid2D(20, 20, gen.UniformWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	b := make([]float64, n)
	vecmath.NewRNG(1).FillNormal(b)
	vecmath.Deflate(b)
	x := make([]float64, n)
	res, err := SolveLaplacian(g, nil, x, b, 1e-14, 2)
	if !errors.Is(err, ErrMaxIterations) {
		t.Fatalf("err = %v, want ErrMaxIterations", err)
	}
	if res.Converged || res.Iterations != 2 {
		t.Fatalf("res = %+v", res)
	}
}

func TestResidualCallback(t *testing.T) {
	g, _ := gen.Grid2D(6, 6, gen.UnitWeights, 1)
	n := g.N()
	b := make([]float64, n)
	vecmath.NewRNG(3).FillNormal(b)
	vecmath.Deflate(b)
	x := make([]float64, n)
	var calls int
	var last float64 = math.Inf(1)
	monotoneViolations := 0
	_, err := Solve(LapOperator{g}, nil, x, b, Options{
		Tol: 1e-9, Deflate: true,
		Residual: func(it int, rel float64) {
			calls++
			if rel > last*10 { // CG residuals may wiggle, not explode
				monotoneViolations++
			}
			last = rel
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("callback never invoked")
	}
	if monotoneViolations > 0 {
		t.Fatalf("%d gross residual explosions", monotoneViolations)
	}
}

// Property: PCG with any of the preconditioners solves random connected
// graphs to high accuracy.
func TestQuickSolveAllPreconditioners(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vecmath.NewRNG(seed)
		rows, cols := 3+rng.Intn(5), 3+rng.Intn(5)
		g, err := gen.Grid2D(rows, cols, gen.UniformWeights, seed)
		if err != nil {
			return false
		}
		n := g.N()
		b := make([]float64, n)
		rng.FillNormal(b)
		vecmath.Deflate(b)

		tr, _, _, err := lsst.Extract(g, lsst.MaxWeight, seed)
		if err != nil {
			return false
		}
		chol, err := NewCholPrecond(g)
		if err != nil {
			return false
		}
		ms := []Preconditioner{nil, NewJacobi(g), TreePrecond{tr}, chol}
		for _, m := range ms {
			x := make([]float64, n)
			res, err := SolveLaplacian(g, m, x, append([]float64(nil), b...), 1e-9, 50*n)
			if err != nil || !res.Converged {
				return false
			}
			y := make([]float64, n)
			g.LapMulVec(y, x)
			for i := range b {
				if math.Abs(y[i]-b[i]) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPCGTreeGrid(b *testing.B) {
	g, err := gen.Grid2D(50, 50, gen.UniformWeights, 1)
	if err != nil {
		b.Fatal(err)
	}
	tr, _, _, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		b.Fatal(err)
	}
	n := g.N()
	rhs := make([]float64, n)
	vecmath.NewRNG(5).FillNormal(rhs)
	vecmath.Deflate(rhs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, n)
		if _, err := SolveLaplacian(g, TreePrecond{tr}, x, append([]float64(nil), rhs...), 1e-6, 10*n); err != nil {
			b.Fatal(err)
		}
	}
}
