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

// generalizedLanczosRef is GeneralizedLanczos as it stood before the
// package's three Lanczos loops were folded into one (krylov.lanczos),
// copied verbatim: the oracle for "same operations in the same order".
// Every Verified* column of the pipeline golden hangs off these bits.
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

// TestGeneralizedLanczosMatchesReference: the adaptor over the shared
// loop returns the old loop's Ritz values bit for bit — a tree and a
// factored sparsifier as P, an early invariant-subspace stop (P = G), and
// k past the n−1 cap.
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
			for _, k := range []int{1, 2, 12, 30, c.g.N() + 5} {
				for _, seed := range []uint64{1, 7} {
					got, err := GeneralizedLanczos(c.g, p, solver, k, seed)
					want, refErr := generalizedLanczosRef(c.g, p, solver, k, seed)
					if err != nil || refErr != nil {
						t.Fatalf("%s m=%d k=%d seed=%d: %v, oracle %v", c.name, p.M(), k, seed, err, refErr)
					}
					if len(got) != len(want) {
						t.Fatalf("%s m=%d k=%d seed=%d: %d Ritz values, oracle %d", c.name, p.M(), k, seed, len(got), len(want))
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s m=%d k=%d seed=%d: ritz[%d] = %x, oracle %x", c.name, p.M(), k, seed, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}
