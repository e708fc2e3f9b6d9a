// Package pcg implements the (preconditioned) conjugate gradient solver
// used throughout the paper's evaluation: plain CG, Jacobi-preconditioned
// CG, spanning-tree-preconditioned CG, and sparsifier-preconditioned CG
// where the preconditioner is a Cholesky factorization of the ultra-sparse
// sparsifier Laplacian (§4.2, Table 2).
//
// Laplacian systems are singular with null space span{1}; Solve keeps all
// iterates mean-free, which both regularizes the Krylov space and makes
// the returned solution the pseudoinverse action.
package pcg

import (
	"errors"
	"fmt"
	"math"

	"graphspar/internal/cholesky"
	"graphspar/internal/graph"
	"graphspar/internal/tree"
	"graphspar/internal/vecmath"
)

// ErrMaxIterations is reported when the solver stops without converging.
var ErrMaxIterations = errors.New("pcg: maximum iterations reached without convergence")

// Operator is a symmetric positive (semi)definite linear operator.
type Operator interface {
	// Apply computes y = A x.
	Apply(y, x []float64)
	// Dim returns the dimension n.
	Dim() int
}

// Preconditioner approximates A⁻¹.
type Preconditioner interface {
	// Precondition computes z ≈ A⁻¹ r.
	Precondition(z, r []float64)
}

// LapOperator adapts a graph Laplacian to the Operator interface using the
// matrix-free edge-list product.
type LapOperator struct{ G *graph.Graph }

// Apply computes y = L_G x.
func (l LapOperator) Apply(y, x []float64) { l.G.LapMulVec(y, x) }

// Dim returns |V|.
func (l LapOperator) Dim() int { return l.G.N() }

// Identity is the trivial preconditioner (plain CG).
type Identity struct{}

// Precondition copies r into z.
func (Identity) Precondition(z, r []float64) { copy(z, r) }

// Jacobi preconditions with the inverse diagonal.
type Jacobi struct{ InvDiag []float64 }

// NewJacobi builds the Jacobi preconditioner for a graph Laplacian.
func NewJacobi(g *graph.Graph) *Jacobi {
	d := g.WeightedDegrees()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v > 0 {
			inv[i] = 1 / v
		}
	}
	return &Jacobi{InvDiag: inv}
}

// Precondition computes z = D⁻¹ r.
func (j *Jacobi) Precondition(z, r []float64) {
	for i := range z {
		z[i] = j.InvDiag[i] * r[i]
	}
}

// TreePrecond preconditions with the exact O(n) spanning-tree solver —
// the backbone preconditioner of the paper's framework.
type TreePrecond struct{ T *tree.Tree }

// Precondition computes z = L_T⁺ r.
func (t TreePrecond) Precondition(z, r []float64) { t.T.Solve(z, r) }

// CholPrecond preconditions with a direct factorization of a (sparsified)
// Laplacian — the paper's "sparsifier as preconditioner" configuration.
type CholPrecond struct{ S *cholesky.LapSolver }

// NewCholPrecond factors the Laplacian of the sparsifier p.
func NewCholPrecond(p *graph.Graph) (*CholPrecond, error) {
	ls, err := cholesky.NewLapSolver(p)
	if err != nil {
		return nil, fmt.Errorf("pcg: factoring preconditioner: %w", err)
	}
	return &CholPrecond{S: ls}, nil
}

// Precondition computes z = L_P⁺ r.
func (c *CholPrecond) Precondition(z, r []float64) { c.S.Solve(z, r) }

// Options controls the iteration.
type Options struct {
	Tol      float64 // relative residual target ||r||/||b|| (default 1e-10)
	MaxIter  int     // default 10·n
	Deflate  bool    // keep iterates mean-free (set for Laplacians)
	Residual func(iter int, rel float64)
}

// Result reports the outcome of a solve.
type Result struct {
	Iterations int
	Residual   float64 // final relative residual
	Converged  bool
}

// Solve runs preconditioned CG for A x = b starting from x (which is
// updated in place and may be zero). It returns iteration statistics; a
// non-converged run returns ErrMaxIterations alongside the best iterate.
func Solve(a Operator, m Preconditioner, x, b []float64, opt Options) (Result, error) {
	n := a.Dim()
	if len(x) != n || len(b) != n {
		panic("pcg: dimension mismatch")
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-10
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10 * n
	}
	if m == nil {
		m = Identity{}
	}

	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	if opt.Deflate {
		vecmath.Deflate(b)
		vecmath.Deflate(x)
	}
	normB := vecmath.Norm2(b)
	if normB == 0 {
		vecmath.Zero(x)
		return Result{Iterations: 0, Residual: 0, Converged: true}, nil
	}

	a.Apply(r, x)
	var sum float64
	for i := range r {
		r[i] = b[i] - r[i]
		sum += r[i]
	}
	rel := deflatedNorm(r, sum, opt.Deflate) / normB
	m.Precondition(z, r)
	rz := deflatedDot(r, z, opt.Deflate)
	copy(p, z)
	if rel <= opt.Tol {
		return Result{Iterations: 0, Residual: rel, Converged: true}, nil
	}

	// One iteration walks the vectors in as few passes as it can: the x
	// and r updates with Σr in one, r's deflation with Σr² in the next
	// (deflatedNorm), z's deflation with rᵀz (deflatedDot), then p. A
	// Laplacian product is mean-free up to rounding, and r is deflated
	// right after it takes ap in, so ap itself is not deflated.
	for it := 1; it <= opt.MaxIter; it++ {
		a.Apply(ap, p)
		pap := vecmath.Dot(p, ap)
		if pap <= 0 {
			// Breakdown: operator not PD on this subspace (or numerical
			// exhaustion). Report what we have.
			return Result{Iterations: it - 1, Residual: rel, Converged: false},
				fmt.Errorf("pcg: breakdown pᵀAp = %v at iteration %d", pap, it)
		}
		alpha := rz / pap
		sum = 0
		for i := range r {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
			sum += r[i]
		}
		rel = deflatedNorm(r, sum, opt.Deflate) / normB
		if opt.Residual != nil {
			opt.Residual(it, rel)
		}
		if rel <= opt.Tol {
			if opt.Deflate {
				vecmath.Deflate(x)
			}
			return Result{Iterations: it, Residual: rel, Converged: true}, nil
		}
		m.Precondition(z, r)
		rzNew := deflatedDot(r, z, opt.Deflate)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	if opt.Deflate {
		vecmath.Deflate(x)
	}
	return Result{Iterations: opt.MaxIter, Residual: rel, Converged: false}, ErrMaxIterations
}

// deflatedNorm deflates x when deflate is set, sum being Σx (so
// x[i] −= sum/n is vecmath.Deflate, bit for bit), and returns ‖x‖₂ after
// it: √Σx² summed in the same pass, or vecmath.Norm2's overflow-safe
// scaled sum when Σx² is 0 or not finite (entries past ≈ 1e154, or all
// below ≈ 1e-162).
func deflatedNorm(x []float64, sum float64, deflate bool) float64 {
	var mean, ss float64
	if deflate {
		mean = sum / float64(len(x))
	}
	for i := range x {
		x[i] -= mean
		ss += x[i] * x[i]
	}
	if ss == 0 || math.IsInf(ss, 0) || math.IsNaN(ss) {
		return vecmath.Norm2(x)
	}
	return math.Sqrt(ss)
}

// deflatedDot deflates z when deflate is set and returns rᵀz, the
// subtraction and the product in one pass: vecmath.Deflate(z) then
// vecmath.Dot(r, z), bit for bit.
func deflatedDot(r, z []float64, deflate bool) float64 {
	var mean float64
	if deflate {
		mean = vecmath.Mean(z)
	}
	z = z[:len(r)]
	var s float64
	for i, ri := range r {
		z[i] -= mean
		s += ri * z[i]
	}
	return s
}

// SolveLaplacian is the common entry point: solves L_G x = b with the given
// preconditioner, mean-free handling enabled.
func SolveLaplacian(g *graph.Graph, m Preconditioner, x, b []float64, tol float64, maxIter int) (Result, error) {
	return Solve(LapOperator{g}, m, x, b, Options{Tol: tol, MaxIter: maxIter, Deflate: true})
}
