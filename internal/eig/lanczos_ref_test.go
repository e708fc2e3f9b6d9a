package eig

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"graphspar/internal/cholesky"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/lsst"
	"graphspar/internal/vecmath"
)

// generalizedLanczosRef is GeneralizedLanczos as it stood before it moved
// into the factor's coordinates, copied verbatim: Lanczos on L_P⁺ L_G in
// the L_P inner product (a walk over P's edges per product), modified
// Gram–Schmidt against the whole basis. It is the oracle the factor-
// coordinate loop must agree with to rounding.
func generalizedLanczosRef(g, p *graph.Graph, solver LapSolver, k int, seed uint64) ([]float64, error) {
	if g.N() != p.N() {
		return nil, fmt.Errorf("eig: vertex counts differ")
	}
	n := g.N()
	if k < 1 {
		return nil, errors.New("eig: k must be positive")
	}
	if k > n-1 {
		k = n - 1
	}
	rng := vecmath.NewRNG(seed)

	bDot := func(x, y []float64) float64 {
		// xᵀ L_P y via the quadratic-form identity on edges.
		var s float64
		for _, e := range p.Edges() {
			s += e.W * (x[e.U] - x[e.V]) * (y[e.U] - y[e.V])
		}
		return s
	}

	v := make([][]float64, 0, k+1)
	alpha := make([]float64, 0, k)
	beta := make([]float64, 0, k)

	v0 := make([]float64, n)
	rng.FillNormal(v0)
	vecmath.Deflate(v0)
	nb := math.Sqrt(bDot(v0, v0))
	if nb == 0 {
		return nil, errors.New("eig: start vector degenerate")
	}
	vecmath.Scale(1/nb, v0)
	v = append(v, v0)

	w := make([]float64, n)
	y := make([]float64, n)
	for j := 0; j < k; j++ {
		vj := v[j]
		g.LapMulVec(y, vj) // y = L_G v_j
		solver.Solve(w, y) // w = L_P⁺ L_G v_j
		vecmath.Deflate(w)
		a := bDot(w, vj)
		alpha = append(alpha, a)
		vecmath.Axpy(-a, vj, w)
		if j > 0 {
			vecmath.Axpy(-beta[j-1], v[j-1], w)
		}
		// Full reorthogonalization in the B-inner product.
		for _, vi := range v {
			c := bDot(w, vi)
			vecmath.Axpy(-c, vi, w)
		}
		bn := math.Sqrt(math.Max(0, bDot(w, w)))
		if bn < 1e-12 {
			break // invariant subspace found
		}
		beta = append(beta, bn)
		vn := make([]float64, n)
		copy(vn, w)
		vecmath.Scale(1/bn, vn)
		v = append(v, vn)
	}
	m := len(alpha)
	d := append([]float64(nil), alpha...)
	e := make([]float64, m-1)
	copy(e, beta[:m-1])
	if err := TQL2(d, e, nil); err != nil {
		return nil, err
	}
	return d, nil
}

// denseSpectrum is the pencil's exact spectrum for small n: ground the last
// vertex, dense Cholesky L_P = R Rᵀ, Jacobi on R⁻¹ L_G R⁻ᵀ. It shares no
// code with either Lanczos loop.
func denseSpectrum(tb testing.TB, g, p *graph.Graph) []float64 {
	tb.Helper()
	m := g.N() - 1
	grounded := func(h *graph.Graph) [][]float64 {
		a := make([][]float64, m)
		for i := range a {
			a[i] = make([]float64, m)
		}
		for _, e := range h.Edges() {
			for _, v := range []int{e.U, e.V} {
				if v < m {
					a[v][v] += e.W
				}
			}
			if e.U < m && e.V < m {
				a[e.U][e.V] -= e.W
				a[e.V][e.U] -= e.W
			}
		}
		return a
	}
	lg, r := grounded(g), grounded(p)
	for j := 0; j < m; j++ { // lower Cholesky in place
		for k := 0; k < j; k++ {
			r[j][j] -= r[j][k] * r[j][k]
		}
		r[j][j] = math.Sqrt(r[j][j])
		for i := j + 1; i < m; i++ {
			for k := 0; k < j; k++ {
				r[i][j] -= r[i][k] * r[j][k]
			}
			r[i][j] /= r[j][j]
		}
	}
	// forward returns (R⁻¹ a)ᵀ; applied twice it gives R⁻¹ L_G R⁻ᵀ.
	forward := func(a [][]float64) [][]float64 {
		for i := 0; i < m; i++ {
			for k := 0; k < i; k++ {
				for j := range a[i] {
					a[i][j] -= r[i][k] * a[k][j]
				}
			}
			for j := range a[i] {
				a[i][j] /= r[i][i]
			}
		}
		t := make([][]float64, m)
		for i := range t {
			t[i] = make([]float64, m)
			for j := range t[i] {
				t[i][j] = a[j][i]
			}
		}
		return t
	}
	vals, _, err := JacobiEigen(forward(forward(lg)))
	if err != nil {
		tb.Fatal(err)
	}
	return vals
}

// TestGeneralizedLanczosMatchesReference: the factor-coordinate loop and
// the old L_P-inner-product loop span the same Krylov space from the same
// seeded vector, so their extreme Ritz values agree to 1e-12 relative — a
// tree and a denser factored P, an early invariant-subspace stop (P = G).
// With k past the n−1 cap the run goes on until the Krylov space is
// exhausted. There the factor-coordinate loop detects the invariant
// subspace and its extremes are the pencil's exact ones (dense referee),
// while the old loop, whose L_P-norm breakdown test rounding keeps above
// threshold, normalizes noise and reports Ritz values outside the spectrum
// (λmin = −7.76 on grid14's tree): it is the referee only below that
// point.
func TestGeneralizedLanczosMatchesReference(t *testing.T) {
	grid, err := gen.Grid2D(14, 14, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	sbm, _, err := gen.SBM(4, 40, 0.2, 0.02, 13)
	if err != nil {
		t.Fatal(err)
	}
	cycle, err := gen.Cycle(9)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"grid14", grid}, {"sbm4x40", sbm}, {"cycle9", cycle}} {
		backbone, _, offIDs, err := lsst.Extract(c.g, lsst.MaxWeight, 1)
		if err != nil {
			t.Fatal(err)
		}
		// A denser P: the tree plus every third off-tree edge.
		extra := make([]graph.Edge, 0, len(offIDs)/3+1)
		for i := 0; i < len(offIDs); i += 3 {
			extra = append(extra, c.g.Edge(offIDs[i]))
		}
		denser, err := backbone.Graph().AddEdges(extra)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*graph.Graph{backbone.Graph(), denser, c.g} {
			solver, err := cholesky.NewLapSolver(p)
			if err != nil {
				t.Fatal(err)
			}
			exact := denseSpectrum(t, c.g, p)
			for _, k := range []int{1, 2, 12, 30, c.g.N() + 5} {
				for _, seed := range []uint64{1, 7} {
					got, err := GeneralizedLanczos(c.g, p, solver, k, seed)
					if err != nil {
						t.Fatalf("%s m=%d k=%d seed=%d: %v", c.name, p.M(), k, seed, err)
					}
					want, err := generalizedLanczosRef(c.g, p, solver, k, seed)
					if err != nil {
						t.Fatalf("%s m=%d k=%d seed=%d: oracle: %v", c.name, p.M(), k, seed, err)
					}
					tol := 1e-12
					if k >= c.g.N()-1 {
						want, tol = exact, 1e-9
					}
					for _, pair := range [][2]float64{{got[0], want[0]}, {got[len(got)-1], want[len(want)-1]}} {
						if d := math.Abs(pair[0] - pair[1]); d > tol*math.Abs(pair[1]) {
							t.Errorf("%s m=%d k=%d seed=%d: extreme Ritz value %v, referee %v (rel %.2g)", c.name, p.M(), k, seed, pair[0], pair[1], d/math.Abs(pair[1]))
						}
					}
				}
			}
		}
	}
}

// A factor of the wrong size is a typed error, not a panic in a sweep.
func TestGeneralizedLanczosFactorDimMismatch(t *testing.T) {
	g, err := gen.Grid2D(5, 5, gen.UniformWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	small, err := gen.Grid2D(4, 5, gen.UniformWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := cholesky.NewLapSolver(small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GeneralizedLanczos(g, g, other, 10, 1); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("factor of a 20-vertex graph on a 25-vertex pencil: %v, want ErrDimMismatch", err)
	}
	if _, err := GeneralizedLanczos(g, small, other, 10, 1); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("G and P of different sizes: %v, want ErrDimMismatch", err)
	}
}
