// Package sddm solves general symmetric diagonally dominant (SDD) systems
// with the similarity-aware sparsification machinery — the full scope of
// the paper's §4.2 "scalable sparse SDD matrix solver", which covers
// matrices that are not pure graph Laplacians (FEM stiffness matrices and
// circuit matrices have excess diagonal).
//
// The classic reduction: an SDD matrix with nonpositive off-diagonals
// decomposes as A = L_G + D_excess with L_G a graph Laplacian and
// D_excess ≥ 0 diagonal. Augmenting G with one ground vertex g connected
// to every vertex i that has D_excess[i] > 0 (edge weight D_excess[i])
// yields a Laplacian L_aug of size n+1 with
//
//	A x = b   ⇔   L_aug [x; x_g] = [b; −Σb],  x_g = 0 after de-grounding.
//
// Positive off-diagonals are handled by magnitude (the paper's own .mtx
// conversion rule |a_ij|), which preserves SDD structure for
// preconditioning purposes; Solve always verifies the true residual
// against the original matrix.
package sddm

import (
	"errors"
	"fmt"
	"math"

	"graphspar/internal/core"
	"graphspar/internal/graph"
	"graphspar/internal/pcg"
	"graphspar/internal/sparse"
	"graphspar/internal/vecmath"
)

// Errors from decomposition and solving.
var (
	ErrNotSDD    = errors.New("sddm: matrix is not symmetric diagonally dominant")
	ErrNotSquare = errors.New("sddm: matrix is not square")
)

// Decomposition splits an SDD matrix into Laplacian + excess diagonal.
type Decomposition struct {
	// G is the graph of off-diagonal couplings (|a_ij| weights).
	G *graph.Graph
	// Excess[i] = a_ii − Σ_j |a_ij| ≥ 0 (up to tolerance).
	Excess []float64
	// Grounded reports whether any excess is materially positive, i.e.
	// whether A is nonsingular and the augmented formulation is used.
	Grounded bool
}

// Decompose validates that a is SDD (within tol·rowscale slack) and
// splits it. Zero off-diagonal rows are allowed only when their diagonal
// is positive (they become pure ground connections).
func Decompose(a *sparse.CSR, tol float64) (*Decomposition, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: %dx%d", ErrNotSquare, a.Rows, a.Cols)
	}
	if tol <= 0 {
		tol = 1e-12
	}
	if !a.IsSymmetric(tol) {
		return nil, fmt.Errorf("%w: not symmetric", ErrNotSDD)
	}
	n := a.Rows
	var edges []graph.Edge
	excess := make([]float64, n)
	for i := 0; i < n; i++ {
		var diag, offsum float64
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			v := a.Val[p]
			if j == i {
				diag = v
				continue
			}
			offsum += math.Abs(v)
			if j > i && v != 0 {
				edges = append(edges, graph.Edge{U: i, V: j, W: math.Abs(v)})
			}
		}
		slack := tol * (1 + math.Abs(diag) + offsum)
		if diag < offsum-slack {
			return nil, fmt.Errorf("%w: row %d has diagonal %v < off-diagonal sum %v", ErrNotSDD, i, diag, offsum)
		}
		e := diag - offsum
		if e < 0 {
			e = 0
		}
		excess[i] = e
	}
	g, err := graph.New(n, edges)
	if err != nil {
		return nil, err
	}
	grounded := false
	var maxDiag float64
	for i, d := range g.WeightedDegrees() {
		maxDiag = max(maxDiag, d+excess[i])
	}
	for _, e := range excess {
		if e > 1e-10*maxDiag {
			grounded = true
			break
		}
	}
	return &Decomposition{G: g, Excess: excess, Grounded: grounded}, nil
}

// AugmentedGraph returns the ground-augmented graph: vertex n is the
// ground, connected to every vertex with positive excess. Returns the
// graph and the ground vertex index. Only valid when Grounded.
func (d *Decomposition) AugmentedGraph() (*graph.Graph, int, error) {
	n := d.G.N()
	if !d.Grounded {
		return nil, 0, errors.New("sddm: no excess diagonal to ground")
	}
	edges := append([]graph.Edge(nil), d.G.Edges()...)
	var maxDiag float64
	for i, dd := range d.G.WeightedDegrees() {
		maxDiag = max(maxDiag, dd+d.Excess[i])
	}
	for i, e := range d.Excess {
		if e > 1e-14*maxDiag {
			edges = append(edges, graph.Edge{U: i, V: n, W: e})
		}
	}
	aug, err := graph.New(n+1, edges)
	if err != nil {
		return nil, 0, err
	}
	return aug, n, nil
}

// Solver solves A x = b for a fixed SDD matrix by sparsifier-preconditioned
// PCG on the (possibly augmented) Laplacian.
type Solver struct {
	a      *sparse.CSR
	dec    *Decomposition
	aug    *graph.Graph // nil when not grounded
	ground int
	pre    pcg.Preconditioner
	// Result of the sparsification, exposed for reporting.
	Spar *core.Result
}

// Options configures NewSolver.
type Options struct {
	SigmaSq float64 // sparsifier similarity target (default 100)
	Seed    uint64
}

// NewSolver decomposes a, sparsifies the (augmented) graph at the given
// σ², and factors the sparsifier as a preconditioner.
func NewSolver(a *sparse.CSR, opt Options) (*Solver, error) {
	if opt.SigmaSq <= 1 {
		opt.SigmaSq = 100
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	dec, err := Decompose(a, 0)
	if err != nil {
		return nil, err
	}
	s := &Solver{a: a, dec: dec, ground: -1}
	target := dec.G
	if dec.Grounded {
		aug, ground, err := dec.AugmentedGraph()
		if err != nil {
			return nil, err
		}
		s.aug, s.ground = aug, ground
		target = aug
	}
	if err := target.RequireConnected(); err != nil {
		return nil, fmt.Errorf("sddm: coupling graph: %w", err)
	}
	spar, err := core.Sparsify(target, core.Options{SigmaSq: opt.SigmaSq, Seed: opt.Seed})
	if err != nil && !errors.Is(err, core.ErrNoTarget) {
		return nil, err
	}
	s.Spar = spar
	pre, err := pcg.NewCholPrecond(spar.Sparsifier)
	if err != nil {
		return nil, err
	}
	s.pre = pre
	return s, nil
}

// augOp applies the augmented Laplacian restricted back to A's action:
// for grounded systems we iterate on the (n+1)-dim Laplacian.
type augOp struct{ g *graph.Graph }

func (o augOp) Apply(y, x []float64) { o.g.LapMulVec(y, x) }
func (o augOp) Dim() int             { return o.g.N() }

// Solve solves A x = b to the given relative residual. For grounded
// systems the augmented Laplacian system [b; −Σb] is solved and the
// solution is shifted so the ground sits at potential 0, which recovers
// the unique solution of the nonsingular A.
func (s *Solver) Solve(x, b []float64, tol float64, maxIter int) (pcg.Result, error) {
	n := s.a.Rows
	if len(x) != n || len(b) != n {
		panic("sddm: Solve dimension mismatch")
	}
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 10 * (n + 1)
	}
	if !s.dec.Grounded {
		// Pure Laplacian: mean-free semantics.
		return pcg.SolveLaplacian(s.dec.G, s.pre, x, b, tol, maxIter)
	}
	ab := make([]float64, n+1)
	copy(ab, b)
	ab[s.ground] = -vecmath.Sum(b)
	ax := make([]float64, n+1)
	res, err := pcg.Solve(augOp{s.aug}, s.pre, ax, ab, pcg.Options{Tol: tol, MaxIter: maxIter, Deflate: true})
	if err != nil {
		return res, err
	}
	shift := ax[s.ground]
	for i := 0; i < n; i++ {
		x[i] = ax[i] - shift
	}
	// Report the true residual against A.
	r := make([]float64, n)
	s.a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	res.Residual = vecmath.RelResidual(r, b)
	return res, nil
}
