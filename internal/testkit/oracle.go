package testkit

import (
	"math"

	"graphspar/internal/eig"
	"graphspar/internal/graph"
	"graphspar/internal/testkit/fixture"
)

// tridiagonalize reduces a symmetric matrix to tridiagonal form by
// Householder reflections (a is overwritten) and returns the diagonal and
// the subdiagonal in eig.TQL2's convention.
func tridiagonalize(a [][]float64) (d, e []float64) {
	m := len(a)
	d, e = make([]float64, m), make([]float64, max(m-1, 0))
	for k := 0; k+2 < m; k++ {
		// v reflects a[k+1:][k] onto alpha·e₁.
		v := make([]float64, m-k-1)
		norm := 0.0
		for i := range v {
			v[i] = a[k+1+i][k]
			norm += v[i] * v[i]
		}
		norm = math.Sqrt(norm)
		alpha := -norm
		if v[0] < 0 {
			alpha = norm
		}
		e[k] = alpha
		v[0] -= alpha
		vn := 0.0
		for _, x := range v {
			vn += x * x
		}
		if vn == 0 {
			continue // the column is already reduced
		}
		vn = math.Sqrt(vn)
		for i := range v {
			v[i] /= vn
		}
		// A ← H A H with H = I − 2vvᵀ: w = A v, q = w − (vᵀw) v,
		// A ← A − 2(v qᵀ + q vᵀ).
		w := make([]float64, len(v))
		for i := range v {
			row := a[k+1+i][k+1:]
			for j, x := range v {
				w[i] += row[j] * x
			}
		}
		c := 0.0
		for i := range v {
			c += v[i] * w[i]
		}
		for i := range w {
			w[i] -= c * v[i]
		}
		for i := range v {
			row := a[k+1+i][k+1:]
			for j := range v {
				row[j] -= 2 * (v[i]*w[j] + w[i]*v[j])
			}
		}
	}
	for i := 0; i < m; i++ {
		d[i] = a[i][i]
	}
	if m >= 2 {
		e[m-2] = a[m-1][m-2]
	}
	return d, e
}

// ExactCond is the dense oracle: the extreme generalized eigenvalues of
// (L_G, L_P) and their ratio κ, by fixture.Pencil's Cholesky reduction,
// Householder tridiagonalization and eig.TQL2. Nothing the pipeline uses
// to produce or certify a sparsifier runs here except TQL2, which only
// diagonalizes a tridiagonal. It refuses n > fixture.MaxN.
func ExactCond(g, p *graph.Graph) (lmax, lmin, cond float64, err error) {
	s, err := fixture.Pencil(g, p)
	if err != nil {
		return 0, 0, 0, err
	}
	d, e := tridiagonalize(s)
	if err := eig.TQL2(d, e, nil); err != nil {
		return 0, 0, 0, err
	}
	lmax, lmin = d[len(d)-1], d[0]
	return lmax, lmin, lmax / lmin, nil
}
