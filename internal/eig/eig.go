// Package eig provides the eigenvalue machinery the paper relies on:
// generalized power iterations for λmax of L_P⁺L_G (§3.6.1), a
// B-inner-product Lanczos for reference extreme generalized eigenvalues
// (the "Matlab eigs" stand-in of Table 1), Lanczos on L⁺ for the first k
// eigenpairs of a Laplacian (Table 4's Teig and spectral clustering), and
// inverse-power Fiedler vectors for partitioning (§4.3).
package eig

import (
	"errors"
	"fmt"
	"math"

	"graphspar/internal/graph"
	"graphspar/internal/pcg"
	"graphspar/internal/vecmath"
)

// LapSolver applies a Laplacian pseudoinverse: x = L⁺ b. Both tree.Tree
// and cholesky.LapSolver satisfy it; PCGSolver adapts iterative solves.
type LapSolver interface {
	Solve(x, b []float64)
}

// PCGSolver adapts preconditioned CG to the LapSolver interface for
// matrix-free pseudoinverse application on big graphs.
type PCGSolver struct {
	G       *graph.Graph
	M       pcg.Preconditioner
	Tol     float64
	MaxIter int
}

// Solve computes x ≈ L_G⁺ b by PCG.
func (s *PCGSolver) Solve(x, b []float64) {
	tol := s.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	maxIter := s.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * s.G.N()
	}
	vecmath.Zero(x)
	bb := append([]float64(nil), b...)
	// Convergence failure here degrades accuracy but should not abort an
	// outer eigen iteration; the caller controls tolerances.
	_, _ = pcg.SolveLaplacian(s.G, s.M, x, bb, tol, maxIter)
}

// PowerResult reports a power-iteration estimate.
type PowerResult struct {
	Value      float64 // Rayleigh-quotient estimate
	Vector     []float64
	Iterations int
	Converged  bool
}

// GeneralizedPowerMax estimates λmax of L_P⁺ L_G by generalized power
// iterations: h ← L_P⁺ (L_G h), with the generalized Rayleigh quotient
// (hᵀL_G h)/(hᵀL_P h). This is exactly the estimator of §3.6.1; the paper
// reports ≤ 10 iterations suffice because the top of the spectrum is well
// separated [21].
func GeneralizedPowerMax(g, p *graph.Graph, solver LapSolver, iters int, tol float64, seed uint64) (PowerResult, error) {
	if g.N() != p.N() {
		return PowerResult{}, fmt.Errorf("eig: vertex counts differ: %d vs %d", g.N(), p.N())
	}
	n := g.N()
	if iters <= 0 {
		iters = 10
	}
	if tol <= 0 {
		tol = 1e-6
	}
	rng := vecmath.NewRNG(seed)
	h := make([]float64, n)
	rng.FillNormal(h)
	vecmath.Deflate(h)
	vecmath.Normalize(h)
	y := make([]float64, n)
	z := make([]float64, n)
	prev := math.Inf(1)
	res := PowerResult{Vector: h}
	for it := 1; it <= iters; it++ {
		g.LapMulVec(y, h)  // y = L_G h
		solver.Solve(z, y) // z = L_P⁺ y
		vecmath.Deflate(z)
		if vecmath.Normalize(z) == 0 {
			return res, errors.New("eig: power iteration collapsed to null space")
		}
		copy(h, z)
		num := g.LapQuadForm(h)
		den := p.LapQuadForm(h)
		if den <= 0 {
			return res, errors.New("eig: degenerate Rayleigh denominator")
		}
		res.Value = num / den
		res.Iterations = it
		if math.Abs(res.Value-prev) <= tol*math.Abs(res.Value) {
			res.Converged = true
			break
		}
		prev = res.Value
	}
	res.Vector = h
	return res, nil
}

// krylov is one Lanczos problem: an operator that is self-adjoint in the
// inner product dot on the complement of the null vector deflate projects
// out.
type krylov struct {
	apply   func(w, v []float64) // w = T v
	dot     func(x, y []float64) float64
	deflate func(x []float64)
}

// lanczos is the package's one Lanczos loop: up to k steps from a seeded
// normal start — apply, deflate, α, the three-term recurrence, full
// reorthogonalization in the problem's inner product, β — then the
// tridiagonal eigenproblem. It returns the Ritz values ascending and,
// with vectors set, the Krylov basis and the tridiagonal's eigenvector
// matrix to assemble Ritz vectors from (ritz[i] pairs with
// Σ_j z[j][i]·basis[j]). It stops early on an invariant subspace, so
// fewer than k values can come back.
func (op krylov) lanczos(n, k int, seed uint64, vectors bool) (ritz []float64, basis, z [][]float64, err error) {
	v := make([][]float64, 0, k+1)
	alpha := make([]float64, 0, k)
	beta := make([]float64, 0, k)

	v0 := make([]float64, n)
	vecmath.NewRNG(seed).FillNormal(v0)
	op.deflate(v0)
	nb := math.Sqrt(op.dot(v0, v0))
	if nb == 0 {
		return nil, nil, nil, errors.New("eig: start vector degenerate")
	}
	vecmath.Scale(1/nb, v0)
	v = append(v, v0)

	w := make([]float64, n)
	for j := 0; j < k; j++ {
		vj := v[j]
		op.apply(w, vj)
		op.deflate(w)
		a := op.dot(w, vj)
		alpha = append(alpha, a)
		vecmath.Axpy(-a, vj, w)
		if j > 0 {
			vecmath.Axpy(-beta[j-1], v[j-1], w)
		}
		// Full reorthogonalization keeps the basis clean.
		for _, vi := range v {
			c := op.dot(w, vi)
			vecmath.Axpy(-c, vi, w)
		}
		bn := math.Sqrt(math.Max(0, op.dot(w, w)))
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
	if vectors {
		// Ritz vectors: rotate the identity alongside.
		z = make([][]float64, m)
		for i := range z {
			z[i] = make([]float64, m)
			z[i][i] = 1
		}
	}
	if err := TQL2(d, e, z); err != nil {
		return nil, nil, nil, err
	}
	return d, v, z, nil
}

// smallestPairs returns the k smallest nontrivial eigenpairs of a pencil
// from Lanczos on its *inverse* operator op: the largest Ritz values μ of
// the inverse are the smallest λ = 1/μ of the pencil, so the returned
// eigenvalues ascend. iters is the Lanczos subspace size (default
// max(3k, 30), capped at n−1).
func (op krylov) smallestPairs(n, k, iters int, seed uint64) ([]float64, [][]float64, error) {
	if k < 1 || k >= n {
		return nil, nil, fmt.Errorf("eig: k=%d out of range for n=%d", k, n)
	}
	if iters <= 0 {
		iters = max(3*k, 30)
	}
	iters = min(iters, n-1)
	d, v, z, err := op.lanczos(n, iters, seed, true)
	if err != nil {
		return nil, nil, err
	}
	m := len(d)
	if m < k {
		return nil, nil, fmt.Errorf("eig: Lanczos stopped after %d < k=%d steps", m, k)
	}
	vals := make([]float64, k)
	vecs := make([][]float64, k)
	for idx := 0; idx < k; idx++ {
		ritz := m - 1 - idx // largest μ first
		mu := d[ritz]
		if mu <= 0 {
			return nil, nil, fmt.Errorf("eig: nonpositive Ritz value %v of the inverse operator", mu)
		}
		vals[idx] = 1 / mu
		vec := make([]float64, n)
		for j := 0; j < m; j++ {
			vecmath.Axpy(z[j][ritz], v[j], vec)
		}
		op.deflate(vec)
		vecmath.Normalize(vec)
		vecs[idx] = vec
	}
	return vals, vecs, nil
}

// GeneralizedLanczos runs k steps of Lanczos for the pencil (L_G, L_P) in
// the L_P inner product: the operator T = L_P⁺ L_G is self-adjoint w.r.t.
// ⟨x,y⟩ = xᵀL_P y on 1⊥, so a B-orthogonal Krylov basis yields a real
// tridiagonal whose Ritz values approximate the generalized spectrum from
// both ends. Returns Ritz values in ascending order. This is the
// reference "eigs" substitute used to validate Table 1's estimators.
func GeneralizedLanczos(g, p *graph.Graph, solver LapSolver, k int, seed uint64) ([]float64, error) {
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
	gv := make([]float64, n)
	ritz, _, _, err := krylov{
		apply: func(w, v []float64) {
			g.LapMulVec(gv, v)  // L_G v
			solver.Solve(w, gv) // w = L_P⁺ L_G v
		},
		dot: func(x, y []float64) float64 {
			// xᵀ L_P y via the quadratic-form identity on edges.
			var s float64
			for _, e := range p.Edges() {
				s += e.W * (x[e.U] - x[e.V]) * (y[e.U] - y[e.V])
			}
			return s
		},
		deflate: vecmath.Deflate,
	}.lanczos(n, k, seed, false)
	return ritz, err
}

// SmallestPairs computes the k smallest *nonzero* eigenvalues and
// eigenvectors of the Laplacian of g by Lanczos on the pseudoinverse
// operator L⁺ (each apply is one solver call), with explicit deflation of
// the constant vector. iters is the Lanczos subspace size (default
// max(3k, 30)). The returned eigenvalues ascend: λ₂ ≤ λ₃ ≤ ….
func SmallestPairs(g *graph.Graph, k int, solver LapSolver, iters int, seed uint64) ([]float64, [][]float64, error) {
	return krylov{
		apply:   solver.Solve, // w = L⁺ v
		dot:     vecmath.Dot,
		deflate: vecmath.Deflate,
	}.smallestPairs(g.N(), k, iters, seed)
}

// Fiedler computes the Fiedler pair (λ₂ and its eigenvector) by power
// iteration on L⁺ (inverse power iteration on L): the dominant eigenpair
// of L⁺ restricted to 1⊥ is exactly (1/λ₂, u₂). The iteration matches
// §4.3's "a few inverse power iterations".
func Fiedler(g *graph.Graph, solver LapSolver, maxIter int, tol float64, seed uint64) (PowerResult, error) {
	n := g.N()
	if maxIter <= 0 {
		maxIter = 50
	}
	if tol <= 0 {
		tol = 1e-8
	}
	rng := vecmath.NewRNG(seed)
	x := make([]float64, n)
	rng.FillNormal(x)
	vecmath.Deflate(x)
	vecmath.Normalize(x)
	y := make([]float64, n)
	prev := 0.0
	res := PowerResult{}
	for it := 1; it <= maxIter; it++ {
		solver.Solve(y, x)
		vecmath.Deflate(y)
		norm := vecmath.Normalize(y)
		if norm == 0 {
			return res, errors.New("eig: Fiedler iteration collapsed")
		}
		copy(x, y)
		// Rayleigh quotient on L gives λ₂ directly.
		lam := g.LapQuadForm(x)
		res.Value = lam
		res.Iterations = it
		if it > 1 && math.Abs(lam-prev) <= tol*math.Abs(lam) {
			res.Converged = true
			break
		}
		prev = lam
	}
	res.Vector = x
	return res, nil
}
