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
	"graphspar/internal/testkit/fixture"
	"graphspar/internal/testkit/matrix"
	"graphspar/internal/vecmath"
)

// generalizedLanczosRef is GeneralizedLanczos as it stood before it moved
// into the factor's coordinates, copied verbatim: Lanczos on L_P⁺ L_G in
// the L_P inner product (a walk over P's edges per product), modified
// Gram–Schmidt against the whole basis. It is the oracle the
// certificate's largest Ritz value must agree with to rounding.
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

// denseSpectrum is the pencil's exact spectrum for small n: the shared
// dense reduction R⁻¹ L_G R⁻ᵀ (fixture.Pencil), diagonalized by Jacobi.
// It shares no code with either Lanczos loop.
func denseSpectrum(tb testing.TB, g, p *graph.Graph) []float64 {
	tb.Helper()
	s, err := fixture.Pencil(g, p)
	if err != nil {
		tb.Fatal(err)
	}
	vals, _, err := matrix.JacobiEigen(s)
	if err != nil {
		tb.Fatal(err)
	}
	return vals
}

// TestGeneralizedLanczosMatchesReference: the factor-coordinate loop and
// the old L_P-inner-product loop span the same Krylov space from the same
// seeded vector. The certificate runs the plain three-term recurrence and
// the old loop reorthogonalizes against its whole basis, so only the λmax
// end is pinned to 1e-12 relative: loss of orthogonality duplicates
// converged Ritz values but does not move the largest (Paige), while the
// smallest differs by up to a few per cent at k = 30 — a tree and a denser
// factored P, an early invariant-subspace stop (P = G). With k past the
// n−1 cap the old loop, whose L_P-norm breakdown test rounding keeps above
// threshold, normalizes noise and reports Ritz values outside the spectrum
// (λmin = −7.76 on grid14's tree), so there the dense spectrum referees
// λmax to 1e-9. On every row every Ritz value lies in the pencil's
// spectrum, up to 1e-9 relative.
func TestGeneralizedLanczosMatchesReference(t *testing.T) {
	for _, c := range referenceGraphs(t) {
		for _, p := range c.ps {
			solver, err := cholesky.NewLapSolver(p)
			if err != nil {
				t.Fatal(err)
			}
			exact := denseSpectrum(t, c.g, p)
			lo, hi := exact[0]*(1-1e-9), exact[len(exact)-1]*(1+1e-9)
			for _, k := range []int{1, 2, 12, 30, c.g.N() + 5} {
				for _, seed := range []uint64{1, 7} {
					row := fmt.Sprintf("%s m=%d k=%d seed=%d", c.name, p.M(), k, seed)
					got, err := GeneralizedLanczos(c.g, p, solver, k, seed)
					if err != nil {
						t.Fatalf("%s: %v", row, err)
					}
					want, tol := exact[len(exact)-1], 1e-9
					if k < c.g.N()-1 {
						ref, err := generalizedLanczosRef(c.g, p, solver, k, seed)
						if err != nil {
							t.Fatalf("%s: oracle: %v", row, err)
						}
						want, tol = ref[len(ref)-1], 1e-12
					}
					top := got[len(got)-1]
					if d := math.Abs(top - want); d > tol*math.Abs(want) {
						t.Errorf("%s: largest Ritz value %v, referee %v (rel %.2g)", row, top, want, d/math.Abs(want))
					}
					if got[0] < lo || top > hi {
						t.Errorf("%s: Ritz values [%v, %v] leave the spectrum [%v, %v]", row, got[0], top, exact[0], exact[len(exact)-1])
					}
				}
			}
		}
	}
}

// referenceGraph is one G of the reference rows with the Ps it is
// certified against: its max-weight tree, the tree plus every third
// off-tree edge, and G itself.
type referenceGraph struct {
	name string
	g    *graph.Graph
	ps   []*graph.Graph
}

func referenceGraphs(t *testing.T) []referenceGraph {
	t.Helper()
	grid, err := gen.Grid2D(14, 14, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	sbm, _, err := gen.SBM(4, 40, 0.2, 0.02, 13)
	if err != nil {
		t.Fatal(err)
	}
	cycle, err := fixture.Cycle(9)
	if err != nil {
		t.Fatal(err)
	}
	rows := []referenceGraph{{name: "grid14", g: grid}, {name: "sbm4x40", g: sbm}, {name: "cycle9", g: cycle}}
	for i, c := range rows {
		backbone, _, offIDs, err := lsst.Extract(c.g, lsst.MaxWeight, 1)
		if err != nil {
			t.Fatal(err)
		}
		extra := make([]graph.Edge, 0, len(offIDs)/3+1)
		for i := 0; i < len(offIDs); i += 3 {
			extra = append(extra, c.g.Edge(offIDs[i]))
		}
		denser, err := backbone.Graph().AddEdges(extra)
		if err != nil {
			t.Fatal(err)
		}
		rows[i].ps = []*graph.Graph{backbone.Graph(), denser, c.g}
	}
	return rows
}

// generalizedLanczosVertexOrder is GeneralizedLanczos with the apply it
// had before G's edges were relabeled into the factor's coordinates: a
// backward half-sweep, a scatter to vertex order (the ground 0), L_G· by
// graph.LapMulVec, a gather and a forward half-sweep.
func generalizedLanczosVertexOrder(g *graph.Graph, solver *cholesky.LapSolver, k int, seed uint64) ([]float64, error) {
	n := g.N()
	k = min(k, n-1)
	x := seeded(n, seed)
	z0 := make([]float64, n-1)
	solver.MulLT(z0, x)
	gx := make([]float64, n)
	ritz, _, _, err := krylov{
		apply: func(w, z []float64) {
			copy(w, z)
			solver.Backward(w)
			for v := range x {
				x[v] = 0
				if c := solver.Coord(v); c < n-1 {
					x[v] = w[c]
				}
			}
			g.LapMulVec(gx, x)
			for v, y := range gx {
				if c := solver.Coord(v); c < n-1 {
					w[c] = y
				}
			}
			solver.Forward(w)
		},
	}.lanczos(z0, k, false)
	return ritz, err
}

// TestGeneralizedLanczosRelabeledApplyBitForBit: the apply over G's edges
// relabeled into the factor's coordinates gives the Ritz values of the
// scatter → L_G· → gather apply bit for bit, on the reference rows and
// on factors carried through a run of ApplyEdge up- and downdates.
func TestGeneralizedLanczosRelabeledApplyBitForBit(t *testing.T) {
	same := func(row string, g, p *graph.Graph, solver *cholesky.LapSolver, k int, seed uint64) {
		t.Helper()
		got, err := GeneralizedLanczos(g, p, solver, k, seed)
		if err != nil {
			t.Fatalf("%s: %v", row, err)
		}
		want, err := generalizedLanczosVertexOrder(g, solver, k, seed)
		if err != nil {
			t.Fatalf("%s: reference: %v", row, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d Ritz values, reference %d", row, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: Ritz value %d is %v, reference %v", row, i, got[i], want[i])
			}
		}
	}
	for _, c := range referenceGraphs(t) {
		for _, p := range c.ps {
			solver, err := cholesky.NewLapSolver(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, 12, 30, c.g.N() + 5} {
				for _, seed := range []uint64{1, 7} {
					same(fmt.Sprintf("%s m=%d k=%d seed=%d", c.name, p.M(), k, seed), c.g, p, solver, k, seed)
				}
			}
			// Reweight every fifth edge of P in the factor (doubled, then
			// down by a quarter), ground-incident ones included, and
			// certify against the P those updates describe.
			edges := p.EdgesCopy()
			for i := 0; i < len(edges); i += 5 {
				e := &edges[i]
				for _, dw := range []float64{e.W, -e.W / 2} {
					if err := solver.ApplyEdge(e.U, e.V, dw); err != nil {
						t.Fatalf("%s: ApplyEdge(%d,%d,%g): %v", c.name, e.U, e.V, dw, err)
					}
				}
				e.W *= 1.5
			}
			updated, err := graph.New(p.N(), edges)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []uint64{1, 7} {
				same(fmt.Sprintf("%s m=%d updated seed=%d", c.name, p.M(), seed), c.g, updated, solver, 30, seed)
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

// TestGeneralizedLanczosGhosts: the plain recurrence run far past
// convergence. G is a 10×10 grid plus one heavy corner-to-corner edge and
// P its max-weight tree, so the top of the pencil (≈ 298) stands well
// clear of the next eigenvalue (≈ 71). At k = n/2 the lost orthogonality
// shows: the converged top Ritz value comes back several times (the
// reorthogonalized loop finds it once). Copies are allowed; a Ritz value
// above the dense oracle's λmax is not.
func TestGeneralizedLanczosGhosts(t *testing.T) {
	grid, err := gen.Grid2D(10, 10, gen.UniformWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := grid.N()
	backbone, _, _, err := lsst.Extract(grid, lsst.MaxWeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.AddEdges([]graph.Edge{{U: 0, V: n - 1, W: 10}})
	if err != nil {
		t.Fatal(err)
	}
	p := backbone.Graph()
	solver, err := cholesky.NewLapSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	exact := denseSpectrum(t, g, p)
	top := exact[len(exact)-1]
	if second := exact[len(exact)-2]; second > top/2 {
		t.Fatalf("top eigenvalue %v not separated from %v", top, second)
	}
	for _, seed := range []uint64{1, 2, 3} {
		got, err := GeneralizedLanczos(g, p, solver, n/2, seed)
		if err != nil {
			t.Fatal(err)
		}
		copies := 0
		for _, v := range got {
			if v > top*(1+1e-9) {
				t.Errorf("seed %d: Ritz value %v above λmax %v", seed, v, top)
			}
			if v > top*(1-1e-6) {
				copies++
			}
		}
		if copies < 2 {
			t.Errorf("seed %d: top Ritz value found %d times; the case needs a run with ghosts", seed, copies)
		}
		if d := math.Abs(got[len(got)-1] - top); d > 1e-9*top {
			t.Errorf("seed %d: largest Ritz value %v, λmax %v", seed, got[len(got)-1], top)
		}
	}
}

// TestGeneralizedLanczosAllocsFlat: the certificate keeps no basis, so its
// allocations do not grow with the step count.
func TestGeneralizedLanczosAllocsFlat(t *testing.T) {
	g, err := gen.Grid2D(16, 16, gen.UniformWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	backbone, _, _, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := backbone.Graph()
	solver, err := cholesky.NewLapSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(k int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := GeneralizedLanczos(g, p, solver, k, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a12, a30 := allocs(12), allocs(30); a12 != a30 {
		t.Fatalf("GeneralizedLanczos allocates %v times at k = 12, %v at k = 30", a12, a30)
	}
}
