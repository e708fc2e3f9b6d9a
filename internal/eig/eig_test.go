package eig

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"graphspar/internal/cholesky"
	"graphspar/internal/gen"
	"graphspar/internal/lsst"
	"graphspar/internal/testkit/fixture"
	"graphspar/internal/testkit/matrix"
	"graphspar/internal/vecmath"
)

// pathEigenvalues returns the exact Laplacian eigenvalues of the unit path
// P_n: 2 - 2cos(kπ/n) = 4 sin²(kπ/2n), k = 0..n-1.
func pathEigenvalues(n int) []float64 {
	vals := make([]float64, n)
	for k := 0; k < n; k++ {
		s := math.Sin(float64(k) * math.Pi / (2 * float64(n)))
		vals[k] = 4 * s * s
	}
	sort.Float64s(vals)
	return vals
}

func TestTQL2Known(t *testing.T) {
	// Tridiagonal [2 -1; -1 2] has eigenvalues 1 and 3.
	d := []float64{2, 2}
	e := []float64{-1}
	if err := TQL2(d, e, nil); err != nil {
		t.Fatal(err)
	}
	if math.Abs(d[0]-1) > 1e-12 || math.Abs(d[1]-3) > 1e-12 {
		t.Fatalf("eigenvalues %v, want [1 3]", d)
	}
}

func TestTQL2Diagonal(t *testing.T) {
	d := []float64{3, 1, 2}
	e := []float64{0, 0}
	if err := TQL2(d, e, nil); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-14 {
			t.Fatalf("d = %v", d)
		}
	}
}

func TestTQL2Empty(t *testing.T) {
	if err := TQL2(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTQL2BadLengths(t *testing.T) {
	if err := TQL2([]float64{1, 2}, []float64{1, 2}, nil); err == nil {
		t.Fatal("expected length error")
	}
}

func TestTQL2PathLaplacian(t *testing.T) {
	// The path Laplacian is tridiagonal: d = [1 2 ... 2 1], e = -1.
	n := 12
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 2
	}
	d[0], d[n-1] = 1, 1
	for i := range e {
		e[i] = -1
	}
	if err := TQL2(d, e, nil); err != nil {
		t.Fatal(err)
	}
	want := pathEigenvalues(n)
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-10 {
			t.Fatalf("eig %d = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestTQL2Eigenvectors(t *testing.T) {
	// Verify A z = λ z columnwise for a small tridiagonal.
	d := []float64{2, 2, 2}
	e := []float64{-1, -1}
	n := 3
	z := make([][]float64, n)
	for i := range z {
		z[i] = make([]float64, n)
		z[i][i] = 1
	}
	dd := append([]float64(nil), d...)
	if err := TQL2(dd, e, z); err != nil {
		t.Fatal(err)
	}
	a := [][]float64{{2, -1, 0}, {-1, 2, -1}, {0, -1, 2}}
	for col := 0; col < n; col++ {
		for row := 0; row < n; row++ {
			var av float64
			for k := 0; k < n; k++ {
				av += a[row][k] * z[k][col]
			}
			if math.Abs(av-dd[col]*z[row][col]) > 1e-10 {
				t.Fatalf("A z != λ z at (%d,%d)", row, col)
			}
		}
	}
}

func TestJacobiEigenKnown(t *testing.T) {
	a := [][]float64{{2, -1, 0}, {-1, 2, -1}, {0, -1, 2}}
	vals, vecs, err := matrix.JacobiEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2 - math.Sqrt2, 2, 2 + math.Sqrt2}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-10 {
			t.Fatalf("vals = %v", vals)
		}
	}
	if len(vecs) != 3 {
		t.Fatal("missing eigenvectors")
	}
}

func TestJacobiMatchesTQL2(t *testing.T) {
	rng := vecmath.NewRNG(9)
	n := 8
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a[i][j], a[j][i] = v, v
		}
	}
	cp := make([][]float64, n)
	for i := range cp {
		cp[i] = append([]float64(nil), a[i]...)
	}
	valsJ, _, err := matrix.JacobiEigen(cp)
	if err != nil {
		t.Fatal(err)
	}
	// Compare traces and extreme values against a crude power iteration on
	// the same matrix shifted to PSD; instead verify sum/sumsq invariants.
	var tr, fro float64
	for i := 0; i < n; i++ {
		tr += a[i][i]
		for j := 0; j < n; j++ {
			fro += a[i][j] * a[i][j]
		}
	}
	var sum, sumsq float64
	for _, v := range valsJ {
		sum += v
		sumsq += v * v
	}
	if math.Abs(sum-tr) > 1e-8 || math.Abs(sumsq-fro) > 1e-6 {
		t.Fatalf("trace/frobenius mismatch: %v vs %v, %v vs %v", sum, tr, sumsq, fro)
	}
}

func TestGeneralizedPowerMaxTreeVsGraph(t *testing.T) {
	// For P = spanning tree of the cycle C_n, L_P⁺L_G has λmax related to
	// the single off-tree edge's stretch: λmax ≈ 1 + st(e)=1+(n-1) for unit
	// cycle. (Exactly: eigenvalues are 1 (multiplicity n-2) and 1+st.)
	n := 16
	g, _ := fixture.Cycle(n)
	tr, _, _, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GeneralizedPowerMax(g, tr.Graph(), tr, 100, 1e-10, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n) // 1 + (n-1)
	if math.Abs(res.Value-want) > 1e-6*want {
		t.Fatalf("λmax = %v, want %v", res.Value, want)
	}
}

func TestGeneralizedPowerMaxIdenticalGraphs(t *testing.T) {
	g, _ := gen.Grid2D(6, 6, gen.UniformWeights, 3)
	ls, err := cholesky.NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GeneralizedPowerMax(g, g, ls, 20, 1e-9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-1) > 1e-8 {
		t.Fatalf("λmax(L⁺L) = %v, want 1", res.Value)
	}
}

func TestGeneralizedPowerMaxDimMismatch(t *testing.T) {
	g1, _ := fixture.Path(4)
	g2, _ := fixture.Path(5)
	if _, err := GeneralizedPowerMax(g1, g2, nil, 5, 0, 1); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestGeneralizedLanczosCycle(t *testing.T) {
	// Pencil (C_n, spanning path): eigenvalues are 1 (mult n-2) and n.
	n := 12
	g, _ := fixture.Cycle(n)
	tr, _, _, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := cholesky.NewLapSolver(tr.Graph()) // a tree factors with no fill
	if err != nil {
		t.Fatal(err)
	}
	vals, err := GeneralizedLanczos(g, tr.Graph(), ls, n-1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) == 0 {
		t.Fatal("no Ritz values")
	}
	top := vals[len(vals)-1]
	bottom := vals[0]
	if math.Abs(top-float64(n)) > 1e-6 {
		t.Fatalf("top Ritz %v, want %v", top, float64(n))
	}
	if math.Abs(bottom-1) > 1e-6 {
		t.Fatalf("bottom Ritz %v, want 1", bottom)
	}
}

func TestSmallestPairsPath(t *testing.T) {
	n := 20
	g, _ := fixture.Path(n)
	ls, err := cholesky.NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	k := 4
	vals, vecs, err := SmallestPairs(g, k, ls, n-1, 11)
	if err != nil {
		t.Fatal(err)
	}
	exact := pathEigenvalues(n) // exact[0] = 0 excluded
	for i := 0; i < k; i++ {
		if math.Abs(vals[i]-exact[i+1]) > 1e-8*(1+exact[i+1]) {
			t.Fatalf("λ_%d = %v, want %v", i+2, vals[i], exact[i+1])
		}
	}
	// Residual check ‖Lv - λv‖ small.
	y := make([]float64, n)
	for i, v := range vecs {
		g.LapMulVec(y, v)
		vecmath.Axpy(-vals[i], v, y)
		if vecmath.Norm2(y) > 1e-6 {
			t.Fatalf("eigpair %d residual %v", i, vecmath.Norm2(y))
		}
	}
}

func TestSmallestPairsValidation(t *testing.T) {
	g, _ := fixture.Path(5)
	ls, _ := cholesky.NewLapSolver(g)
	if _, _, err := SmallestPairs(g, 0, ls, 10, 1); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, _, err := SmallestPairs(g, 5, ls, 10, 1); err == nil {
		t.Fatal("k=n should fail")
	}
}

func TestFiedlerGrid(t *testing.T) {
	// λ₂ of the unit 2D grid r×c equals 4sin²(π/2c) for c >= r.
	rows, cols := 4, 9
	g, _ := gen.Grid2D(rows, cols, gen.UnitWeights, 1)
	ls, err := cholesky.NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fiedler(g, ls, 200, 1e-12, 17)
	if err != nil {
		t.Fatal(err)
	}
	s := math.Sin(math.Pi / (2 * float64(cols)))
	want := 4 * s * s
	if math.Abs(res.Value-want) > 1e-6*want {
		t.Fatalf("λ₂ = %v, want %v", res.Value, want)
	}
	if !res.Converged {
		t.Fatal("Fiedler did not converge")
	}
}

func TestFiedlerSignCutSplitsPath(t *testing.T) {
	// The Fiedler vector of a path is monotone; its sign cut should split
	// the path into two halves.
	n := 30
	g, _ := fixture.Path(n)
	ls, _ := cholesky.NewLapSolver(g)
	res, err := Fiedler(g, ls, 300, 1e-12, 19)
	if err != nil {
		t.Fatal(err)
	}
	// Count sign changes along the path: must be exactly 1.
	changes := 0
	for i := 0; i+1 < n; i++ {
		if (res.Vector[i] >= 0) != (res.Vector[i+1] >= 0) {
			changes++
		}
	}
	if changes != 1 {
		t.Fatalf("Fiedler sign changes = %d, want 1", changes)
	}
}

func TestPCGSolverAdapter(t *testing.T) {
	g, _ := gen.Grid2D(7, 7, gen.UniformWeights, 5)
	s := &PCGSolver{G: g, Tol: 1e-12}
	n := g.N()
	b := make([]float64, n)
	vecmath.NewRNG(3).FillNormal(b)
	vecmath.Deflate(b)
	x := make([]float64, n)
	s.Solve(x, b)
	y := make([]float64, n)
	g.LapMulVec(y, x)
	for i := range b {
		if math.Abs(y[i]-b[i]) > 1e-8 {
			t.Fatalf("PCGSolver inaccurate at %d", i)
		}
	}
}

// Property: Lanczos-based SmallestPairs eigenvalues lie within the exact
// spectrum bounds and ascend.
func TestQuickSmallestPairsOrdered(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vecmath.NewRNG(seed)
		rows, cols := 3+rng.Intn(4), 3+rng.Intn(4)
		g, err := gen.Grid2D(rows, cols, gen.UniformWeights, seed)
		if err != nil {
			return false
		}
		ls, err := cholesky.NewLapSolver(g)
		if err != nil {
			return false
		}
		k := 3
		vals, _, err := SmallestPairs(g, k, ls, g.N()-1, seed)
		if err != nil {
			return false
		}
		for i := 0; i+1 < k; i++ {
			if vals[i] > vals[i+1]+1e-12 {
				return false
			}
		}
		return vals[0] > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: λmax(L_P⁺L_G) >= 1 whenever P is a subgraph of G (interlacing).
func TestQuickGeneralizedMaxAtLeastOne(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.Grid2D(5, 6, gen.UniformWeights, seed)
		if err != nil {
			return false
		}
		tr, _, _, err := lsst.Extract(g, lsst.MaxWeight, seed)
		if err != nil {
			return false
		}
		res, err := GeneralizedPowerMax(g, tr.Graph(), tr, 50, 1e-8, seed)
		if err != nil {
			return false
		}
		return res.Value >= 1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPathEigenvaluesHelper(t *testing.T) {
	vals := pathEigenvalues(2)
	if math.Abs(vals[0]) > 1e-15 || math.Abs(vals[1]-2) > 1e-12 {
		t.Fatalf("P_2 eigenvalues %v, want [0 2]", vals)
	}
}

func BenchmarkGeneralizedPowerMax(b *testing.B) {
	g, err := gen.Grid2D(50, 50, gen.UniformWeights, 1)
	if err != nil {
		b.Fatal(err)
	}
	tr, _, _, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GeneralizedPowerMax(g, tr.Graph(), tr, 10, 1e-6, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
