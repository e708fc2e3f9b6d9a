// Package eig provides the eigenvalue machinery the paper relies on:
// generalized power iterations for λmax of L_P⁺L_G (§3.6.1), Lanczos in
// the factor's coordinates for the extreme generalized eigenvalues (the
// similarity certificate, and the "Matlab eigs" stand-in of Table 1),
// Lanczos on L⁺ for the first k eigenpairs of a Laplacian (Table 4's Teig
// and spectral clustering), and inverse-power Fiedler vectors for
// partitioning (§4.3).
package eig

import (
	"errors"
	"fmt"
	"math"

	"graphspar/internal/cholesky"
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
// inner product ⟨x, y⟩ = Σ weight[i]·x[i]·y[i] (Euclidean when weight is
// nil) on the complement of the null vector deflate projects out (none
// when deflate is nil).
type krylov struct {
	apply   func(w, v []float64) // w = T v
	weight  []float64
	deflate func(x []float64)
}

// dgks is the Daniel–Gragg–Kaufman–Stewart test of the reorthogonalized
// path (vectors set): a Gram–Schmidt pass that leaves less than 1/√2 of
// ‖w‖ lost enough digits to need a second one. The Ritz-value-only path
// runs no Gram–Schmidt and so no test.
const dgks = 1 / math.Sqrt2

// lanczos is the package's one Lanczos loop: up to k steps from the start
// vector v0 (deflated and normalized here, in place) — apply, deflate, α,
// the three-term recurrence, β — then the tridiagonal eigenproblem. It
// returns the Ritz values ascending and stops early on an invariant
// subspace, so fewer than k values can come back. It has two paths.
//
// With vectors set it keeps the Krylov basis and reorthogonalizes w
// against all of it at every step: one classical Gram–Schmidt pass, plus a
// second when the first cancels more than 1/√2 of ‖w‖ (dgks). It returns
// the basis and the tridiagonal's eigenvector matrix to assemble Ritz
// vectors from (ritz[i] pairs with Σ_j z[j][i]·basis[j]).
//
// Without vectors it runs the plain three-term recurrence in three
// rotating length-n buffers (v_{j−1}, v_j, w; v0 is one of them, so its
// contents are lost), allocating nothing per step. Loss of orthogonality
// then only duplicates Ritz values that have already converged; it never
// moves the largest past λmax by more than rounding (Paige 1980; Parlett,
// The Symmetric Eigenvalue Problem, ch. 13). The smallest Ritz value of a
// deep run may differ from the reorthogonalized one's.
func (op krylov) lanczos(v0 []float64, k int, vectors bool) (ritz []float64, basis, z [][]float64, err error) {
	n := len(v0)
	alpha := make([]float64, 0, k)
	beta := make([]float64, 0, k)

	op.deflateIfAny(v0)
	nb := math.Sqrt(op.dot(v0, v0))
	if nb == 0 {
		return nil, nil, nil, errors.New("eig: start vector degenerate")
	}
	vecmath.Scale(1/nb, v0)

	var v [][]float64 // the basis, kept with vectors set
	var gs gramSchmidt
	if vectors {
		v = append(make([][]float64, 0, k+1), v0)
		gs.coef = make([]float64, 0, k+1)
		if op.weight != nil {
			gs.weighted = make([]float64, n)
		}
	}
	vj, prev, w := v0, make([]float64, n), make([]float64, n) // v_j, v_{j−1}
	for j := 0; j < k; j++ {
		op.apply(w, vj)
		op.deflateIfAny(w)
		a := op.dot(w, vj)
		alpha = append(alpha, a)
		b, vp := 0.0, vj // the three-term recurrence; β₋₁ = 0
		if j > 0 {
			b, vp = beta[j-1], prev
		}
		vj, vp = vj[:len(w)], vp[:len(w)]
		for t := range w {
			w[t] = w[t] - float64(a*vj[t]) - float64(b*vp[t])
		}
		after := op.dot(w, w)
		if vectors {
			before := after
			gs.pass(w, v, op.weight)
			after = op.dot(w, w)
			if after < dgks*dgks*before {
				gs.pass(w, v, op.weight)
				after = op.dot(w, w)
			}
		}
		bn := math.Sqrt(math.Max(0, after))
		if bn < 1e-12 {
			break // invariant subspace found
		}
		beta = append(beta, bn)
		if vectors {
			vn := make([]float64, n)
			copy(vn, w)
			vecmath.Scale(1/bn, vn)
			v = append(v, vn)
			prev, vj = vj, vn
		} else {
			vecmath.Scale(1/bn, w)
			prev, vj, w = vj, w, prev // w reuses v_{j−1}'s buffer
		}
	}
	m := len(alpha)
	if vectors {
		// Ritz vectors: rotate the identity alongside.
		z = make([][]float64, m)
		for i := range z {
			z[i] = make([]float64, m)
			z[i][i] = 1
		}
	}
	if err := TQL2(alpha, beta[:m-1], z); err != nil {
		return nil, nil, nil, err
	}
	return alpha, v, z, nil
}

func (op krylov) deflateIfAny(x []float64) {
	if op.deflate != nil {
		op.deflate(x)
	}
}

// dot is the problem's inner product. Products are rounded before they
// are summed (float64(…)) here and in gramSchmidt, so no host fuses them
// into multiply-adds and the certificate's bits are the same everywhere.
func (op krylov) dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s float64
	if op.weight == nil {
		for i, xi := range x {
			s += float64(xi * y[i])
		}
		return s
	}
	d := op.weight[:len(x)]
	for i, xi := range x {
		s += float64(float64(d[i]*xi) * y[i])
	}
	return s
}

// gramSchmidt holds one Lanczos run's reorthogonalization scratch.
type gramSchmidt struct {
	coef     []float64 // ⟨w, basis[i]⟩
	weighted []float64 // weight∘w, for a weighted inner product
}

// pass is one classical Gram–Schmidt pass, w ← w − Σ ⟨w, bᵢ⟩ bᵢ over the
// basis: every coefficient from the same w, then every update. Four basis
// vectors share each walk over w, in the dot products and in the updates.
func (gs *gramSchmidt) pass(w []float64, basis [][]float64, weight []float64) {
	x := w
	if weight != nil {
		x = gs.weighted
		for i, wi := range w {
			x[i] = float64(weight[i] * wi)
		}
	}
	c := gs.coef[:len(basis)]
	i := 0
	for ; i+4 <= len(basis); i += 4 {
		b0, b1, b2, b3 := basis[i][:len(x)], basis[i+1][:len(x)], basis[i+2][:len(x)], basis[i+3][:len(x)]
		var s0, s1, s2, s3 float64
		for t, xt := range x {
			s0 += float64(xt * b0[t])
			s1 += float64(xt * b1[t])
			s2 += float64(xt * b2[t])
			s3 += float64(xt * b3[t])
		}
		c[i], c[i+1], c[i+2], c[i+3] = s0, s1, s2, s3
	}
	for ; i < len(basis); i++ {
		b := basis[i][:len(x)]
		var s float64
		for t, xt := range x {
			s += float64(xt * b[t])
		}
		c[i] = s
	}
	i = 0
	for ; i+4 <= len(basis); i += 4 {
		b0, b1, b2, b3 := basis[i][:len(w)], basis[i+1][:len(w)], basis[i+2][:len(w)], basis[i+3][:len(w)]
		c0, c1, c2, c3 := c[i], c[i+1], c[i+2], c[i+3]
		for t := range w {
			w[t] = w[t] - float64(c0*b0[t]) - float64(c1*b1[t]) - float64(c2*b2[t]) - float64(c3*b3[t])
		}
	}
	for ; i < len(basis); i++ {
		b, ci := basis[i][:len(w)], c[i]
		for t := range w {
			w[t] -= float64(ci * b[t])
		}
	}
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
	d, v, z, err := op.lanczos(seeded(n, seed), iters, true)
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
		op.deflateIfAny(vec)
		vecmath.Normalize(vec)
		vecs[idx] = vec
	}
	return vals, vecs, nil
}

// seeded returns the seeded normal vector every Lanczos run starts from.
func seeded(n int, seed uint64) []float64 {
	v := make([]float64, n)
	vecmath.NewRNG(seed).FillNormal(v)
	return v
}

// ErrDimMismatch reports operands of GeneralizedLanczos that do not
// describe one pencil: G and P on different vertex counts, or a factor
// whose dimension is not n−1.
var ErrDimMismatch = errors.New("eig: dimension mismatch")

// GeneralizedLanczos runs k steps of Lanczos for the pencil (L_G, L_P)
// in the factor's coordinates: with the grounded L_P = L Lᵀ (solver's
// factor, which must be a factorization of exactly P), the pencil's
// nonzero spectrum is that of the symmetric M = L⁻¹ L̂_G L⁻ᵀ, L̂_G being
// L_G grounded and permuted like the factor. Lanczos on M needs the
// Euclidean inner product and no deflation. G's edges are relabeled into
// the factor's coordinates once per call (solver.Coord, the ground at
// slot n−1 of a work vector held at zero), so one apply is a backward
// half-sweep, one pass over those edges and a forward half-sweep, with no
// trip through vertex order; every float is the one L_G· in vertex order
// between a scatter and a gather gives. The run
// starts from Lᵀ times the seeded normal vector grounded, so it spans the
// Krylov space Lanczos on L_P⁺ L_G in the L_P inner product spans from
// that vector: the Ritz values are that iteration's, to rounding. They
// approximate the generalized spectrum from both ends and are returned in
// ascending order. This is the similarity certificate (core's
// VerifySimilarity) and the reference "eigs" of Table 1.
func GeneralizedLanczos(g, p *graph.Graph, solver *cholesky.LapSolver, k int, seed uint64) ([]float64, error) {
	n := g.N()
	if p.N() != n {
		return nil, fmt.Errorf("%w: G has %d vertices, P %d", ErrDimMismatch, n, p.N())
	}
	if dim := solver.Dim(); dim != n-1 {
		return nil, fmt.Errorf("%w: factor of dimension %d for a %d-vertex pencil", ErrDimMismatch, dim, n)
	}
	if k < 1 {
		return nil, errors.New("eig: k must be positive")
	}
	k = min(k, n-1)
	x := seeded(n, seed)
	z0 := make([]float64, n-1)
	solver.MulLT(z0, x) // x is the apply's input from here on
	x[n-1] = 0          // the ground slot
	edges := make([]coordEdge, g.M())
	for i, e := range g.Edges() {
		edges[i] = coordEdge{int32(solver.Coord(e.U)), int32(solver.Coord(e.V)), e.W}
	}
	gx := make([]float64, n)
	ritz, _, _, err := krylov{
		apply: func(w, z []float64) {
			copy(x, z)
			solver.Backward(x[:n-1]) // L⁻ᵀ z
			lapMulCoords(gx, x, edges)
			copy(w, gx)       // L̂_G L⁻ᵀ z, the ground slot dropped
			solver.Forward(w) // w = M z
		},
	}.lanczos(z0, k, false)
	return ritz, err
}

// coordEdge is an edge of G with its endpoints in a factor's coordinates
// (cholesky.LapSolver.Coord).
type coordEdge struct {
	u, v int32
	w    float64
}

// lapMulCoords is graph.LapMulVec over relabeled edges: y = L x, the
// same operations in the same edge order, so y's bits are LapMulVec's on
// the vectors relabeled alike.
func lapMulCoords(y, x []float64, edges []coordEdge) {
	clear(y)
	for _, e := range edges {
		d := x[e.u] - x[e.v]
		y[e.u] += e.w * d
		y[e.v] -= e.w * d
	}
}

// SmallestPairs computes the k smallest *nonzero* eigenvalues and
// eigenvectors of the Laplacian of g by Lanczos on the pseudoinverse
// operator L⁺ (each apply is one solver call), with explicit deflation of
// the constant vector. iters is the Lanczos subspace size (default
// max(3k, 30)). The returned eigenvalues ascend: λ₂ ≤ λ₃ ≤ ….
func SmallestPairs(g *graph.Graph, k int, solver LapSolver, iters int, seed uint64) ([]float64, [][]float64, error) {
	return krylov{
		apply:   solver.Solve, // w = L⁺ v
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
