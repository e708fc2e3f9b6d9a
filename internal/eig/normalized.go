package eig

import (
	"errors"

	"graphspar/internal/graph"
)

// SmallestPairsNormalized computes the k smallest nontrivial eigenpairs of
// the *generalized* problem L u = λ D u (the random-walk normalized
// Laplacian spectrum used by Shi–Malik spectral partitioning; §4.3
// mentions the "(normalized) graph Laplacian"). It runs Lanczos on the
// operator L⁺D, which is self-adjoint in the D-inner product, with full
// reorthogonalization and D-deflation of the constant vector. Each step
// costs one Laplacian solve. Returned eigenvalues ascend.
func SmallestPairsNormalized(g *graph.Graph, k int, solver LapSolver, iters int, seed uint64) ([]float64, [][]float64, error) {
	d := g.WeightedDegrees()
	var volume float64
	for _, v := range d {
		if v <= 0 {
			return nil, nil, errors.New("eig: isolated vertex has zero degree")
		}
		volume += v
	}
	dv := make([]float64, g.N())
	return krylov{
		apply: func(w, v []float64) {
			for i := range dv {
				dv[i] = d[i] * v[i]
			}
			solver.Solve(w, dv) // w = L⁺ D v
		},
		dot: func(x, y []float64) float64 {
			var s float64
			for i := range x {
				s += d[i] * x[i] * y[i]
			}
			return s
		},
		// D-deflate: remove the D-component along 1 (pencil null vector).
		deflate: func(x []float64) {
			var s float64
			for i := range x {
				s += d[i] * x[i]
			}
			s /= volume
			for i := range x {
				x[i] -= s
			}
		},
	}.smallestPairs(g.N(), k, iters, seed)
}
