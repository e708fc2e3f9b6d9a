package fixture

import (
	"fmt"
	"math"

	"graphspar/internal/graph"
)

// MaxN bounds Pencil: O(n²) memory, O(n³) time.
const MaxN = 600

// groundedLaplacian is L_g as a dense matrix with the last vertex grounded
// (its row and column dropped).
func groundedLaplacian(g *graph.Graph) [][]float64 {
	m := g.N() - 1
	l := make([][]float64, m)
	for i := range l {
		l[i] = make([]float64, m)
	}
	for _, e := range g.Edges() {
		if e.U < m {
			l[e.U][e.U] += e.W
		}
		if e.V < m {
			l[e.V][e.V] += e.W
		}
		if e.U < m && e.V < m {
			l[e.U][e.V] -= e.W
			l[e.V][e.U] -= e.W
		}
	}
	return l
}

// Pencil reduces the grounded pencil (L_G, L_P) to one symmetric matrix
// R⁻¹ L_G R⁻ᵀ with the same eigenvalues, where L_P = R Rᵀ is the dense
// Cholesky factor. Grounding a vertex removes the shared all-ones null
// vector, so these are exactly the generalized eigenvalues of the pencil
// on 1⊥. It shares no code with the pipeline's factor or its Lanczos
// loop, refuses n > MaxN, and fails when grounded L_P is not positive
// definite (P disconnected).
func Pencil(g, p *graph.Graph) ([][]float64, error) {
	if g.N() != p.N() {
		return nil, fmt.Errorf("fixture: |V(G)| = %d, |V(P)| = %d", g.N(), p.N())
	}
	if g.N() > MaxN {
		return nil, fmt.Errorf("fixture: n = %d exceeds the dense limit %d", g.N(), MaxN)
	}
	lg, r := groundedLaplacian(g), groundedLaplacian(p)
	m := len(r)
	for j := 0; j < m; j++ { // lower Cholesky in place; the upper triangle is never read
		for k := 0; k < j; k++ {
			r[j][j] -= r[j][k] * r[j][k]
		}
		if !(r[j][j] > 0) {
			return nil, fmt.Errorf("fixture: grounded L_P is not positive definite at pivot %d (is P connected?)", j)
		}
		r[j][j] = math.Sqrt(r[j][j])
		for i := j + 1; i < m; i++ {
			for k := 0; k < j; k++ {
				r[i][j] -= r[i][k] * r[j][k]
			}
			r[i][j] /= r[j][j]
		}
	}
	// forward overwrites a with R⁻¹ a, column by column, and returns its
	// transpose.
	forward := func(a [][]float64) [][]float64 {
		for i := 0; i < m; i++ {
			for k := 0; k < i; k++ {
				if rik := r[i][k]; rik != 0 {
					for j := range a[i] {
						a[i][j] -= rik * a[k][j]
					}
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
	s := forward(forward(lg)) // (R⁻¹ (R⁻¹ L_G)ᵀ)ᵀ = R⁻¹ L_G R⁻ᵀ
	for i := range s {
		for j := i + 1; j < m; j++ {
			s[i][j] = (s[i][j] + s[j][i]) / 2
			s[j][i] = s[i][j]
		}
	}
	return s, nil
}
