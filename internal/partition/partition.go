// Package partition implements the spectral graph bipartitioner of §4.3:
// an approximate Fiedler vector is computed by a few inverse power
// iterations, and the graph is split with the sign-cut method [18]. Two
// solver backends mirror Table 3's comparison: a direct sparse Cholesky of
// L_G ("direct"), and PCG on L_G preconditioned by a similarity-aware
// sparsifier ("iterative"). The package also computes the metrics the
// table reports: sign balance |V₊|/|V₋|, relative sign error, cut weight,
// and a memory proxy.
package partition

import (
	"errors"
	"fmt"
	"time"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/eig"
	"graphspar/internal/graph"
	"graphspar/internal/pcg"
)

// Method selects the Fiedler-solver backend.
type Method int

// Backends.
const (
	// Direct factors L_G (grounded) with sparse Cholesky — the CHOLMOD
	// stand-in, Table 3's T_D / M_D column.
	Direct Method = iota
	// Iterative solves with PCG preconditioned by a σ²-sparsifier —
	// Table 3's T_I / M_I column.
	Iterative
	// SparsifierOnly computes the Fiedler vector of the sparsifier itself
	// and uses it to cut the original graph (the shortcut §4.3 mentions
	// when the sparsifier approximates G well).
	SparsifierOnly
	// BFS is the solver-free level-set heuristic: split at the median of
	// the BFS order from a pseudo-peripheral vertex (the Cuthill–McKee
	// level-structure idea). Cuts are rougher than spectral ones but cost
	// O(n + m) total, which is what the sharding engine needs — there the
	// partitioner must be far cheaper than the sparsifications it feeds.
	BFS
)

// String names the backend for flags and logs.
func (m Method) String() string {
	switch m {
	case Direct:
		return "direct"
	case Iterative:
		return "iterative"
	case SparsifierOnly:
		return "sparsifier-only"
	case BFS:
		return "bfs"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod is the inverse of Method.String, for flags and wire formats.
// The empty string maps to Direct.
func ParseMethod(name string) (Method, error) {
	switch name {
	case "", "direct":
		return Direct, nil
	case "iterative":
		return Iterative, nil
	case "sparsifier-only":
		return SparsifierOnly, nil
	case "bfs":
		return BFS, nil
	default:
		return 0, fmt.Errorf("partition: unknown method %q", name)
	}
}

// Options configures SpectralBisect.
type Options struct {
	Method  Method
	SigmaSq float64 // sparsifier target for Iterative/SparsifierOnly (default 200)
	MaxIter int     // inverse power iterations (default 50)
	Tol     float64 // Fiedler Rayleigh-quotient tolerance (default 1e-8)
	PCGTol  float64 // inner PCG tolerance for Iterative (default 1e-8)
	Seed    uint64
}

func (o *Options) defaults() {
	if o.SigmaSq <= 1 {
		o.SigmaSq = 200
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 50
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.PCGTol <= 0 {
		o.PCGTol = 1e-8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Result reports a bipartition.
type Result struct {
	// Signs holds +1/-1 per vertex from the sign cut of the Fiedler vector.
	Signs []int8
	// Fiedler is the computed eigenvector; Lambda2 its Rayleigh quotient.
	Fiedler []float64
	Lambda2 float64
	// Positive and Negative count the two sides.
	Positive, Negative int
	// SetupTime covers factorization/sparsification; SolveTime the
	// inverse power iterations (matching the paper's T_D/T_I split, which
	// excludes sparsification time from T_I — we report both).
	SetupTime, SolveTime time.Duration
	// MemProxyBytes approximates solver memory: Cholesky factor entries
	// (direct) or sparsifier + factor entries (iterative), at 16 bytes per
	// stored nonzero (index + value).
	MemProxyBytes uint64
	// SparsifierEdges is 0 for Direct.
	SparsifierEdges int
}

// Balance returns |V₊|/|V₋| (∞-safe: returns 0 when V₋ is empty).
func (r *Result) Balance() float64 {
	if r.Negative == 0 {
		return 0
	}
	return float64(r.Positive) / float64(r.Negative)
}

// SpectralBisect computes an approximate Fiedler vector with the selected
// backend and splits g by sign.
func SpectralBisect(g *graph.Graph, opt Options) (*Result, error) {
	if err := g.RequireConnected(); err != nil {
		return nil, err
	}
	if g.N() < 2 {
		return nil, errors.New("partition: need at least 2 vertices")
	}
	opt.defaults()

	if opt.Method == BFS {
		return bfsBisect(g), nil
	}

	var (
		solver   eig.LapSolver
		fiedlerG *graph.Graph = g
		res      Result
	)
	setupStart := time.Now()
	switch opt.Method {
	case Direct:
		ls, err := cholesky.NewLapSolver(g)
		if err != nil {
			return nil, fmt.Errorf("partition: direct setup: %w", err)
		}
		solver = ls
		res.MemProxyBytes = uint64(ls.FactorNNZ()) * 16
	case Iterative, SparsifierOnly:
		sp, err := core.Sparsify(g, core.Options{SigmaSq: opt.SigmaSq, Seed: opt.Seed})
		if err != nil && !errors.Is(err, core.ErrNoTarget) {
			return nil, fmt.Errorf("partition: sparsification: %w", err)
		}
		res.SparsifierEdges = sp.Sparsifier.M()
		chol, err := pcg.NewCholPrecond(sp.Sparsifier)
		if err != nil {
			return nil, fmt.Errorf("partition: sparsifier factor: %w", err)
		}
		res.MemProxyBytes = uint64(sp.Sparsifier.M())*16 + uint64(chol.S.FactorNNZ())*16
		if opt.Method == Iterative {
			solver = &eig.PCGSolver{G: g, M: chol, Tol: opt.PCGTol, MaxIter: 4 * g.N()}
		} else {
			solver = chol.S // L_P⁺ directly: Fiedler vector of the sparsifier
			fiedlerG = sp.Sparsifier
		}
	default:
		return nil, fmt.Errorf("partition: unknown method %v", opt.Method)
	}
	res.SetupTime = time.Since(setupStart)

	solveStart := time.Now()
	fr, err := eig.Fiedler(fiedlerG, solver, opt.MaxIter, opt.Tol, opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("partition: Fiedler iteration: %w", err)
	}
	res.SolveTime = time.Since(solveStart)
	res.Fiedler = fr.Vector
	res.Lambda2 = fr.Value

	res.Signs = make([]int8, g.N())
	for i, v := range fr.Vector {
		if v >= 0 {
			res.Signs[i] = 1
			res.Positive++
		} else {
			res.Signs[i] = -1
			res.Negative++
		}
	}
	return &res, nil
}

// bfsBisect splits g at the median of its BFS order from a
// pseudo-peripheral vertex (two BFS sweeps pick the start, the standard
// level-structure trick). The positive side is a connected BFS prefix of
// exactly ⌈n/2⌉ vertices, so the split is perfectly balanced and the cut
// runs along a level set. Both sweeps walk one transient incidence list.
func bfsBisect(g *graph.Graph) *Result {
	start := time.Now()
	inc := graph.NewIncidence(g)
	order, _ := inc.BFSOrder(0)
	far := order[len(order)-1]
	order, _ = inc.BFSOrder(far)

	n := g.N()
	res := &Result{Signs: make([]int8, n)}
	half := (n + 1) / 2
	for i, v := range order {
		if i < half {
			res.Signs[v] = 1
			res.Positive++
		} else {
			res.Signs[v] = -1
			res.Negative++
		}
	}
	res.SolveTime = time.Since(start)
	return res
}

// SignError returns |V_dif|/|V| between two sign vectors, minimized over
// the global sign flip (eigenvectors are defined up to sign) — the
// Rel.Err. column of Table 3.
func SignError(a, b []int8) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("partition: sign vectors differ in length")
	}
	if len(a) == 0 {
		return 0, nil
	}
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	n := len(a)
	err1 := float64(diff) / float64(n)
	err2 := float64(n-diff) / float64(n)
	if err2 < err1 {
		return err2, nil
	}
	return err1, nil
}

// CutWeight returns the total weight of edges crossing the partition.
func CutWeight(g *graph.Graph, signs []int8) (float64, error) {
	if len(signs) != g.N() {
		return 0, errors.New("partition: sign vector length mismatch")
	}
	var w float64
	for _, e := range g.Edges() {
		if signs[e.U] != signs[e.V] {
			w += e.W
		}
	}
	return w, nil
}

// Conductance returns cut(S)/min(vol(S), vol(V\S)) for the positive side.
func Conductance(g *graph.Graph, signs []int8) (float64, error) {
	cut, err := CutWeight(g, signs)
	if err != nil {
		return 0, err
	}
	var volPos, volNeg float64
	deg := g.WeightedDegrees()
	for i, s := range signs {
		if s > 0 {
			volPos += deg[i]
		} else {
			volNeg += deg[i]
		}
	}
	vol := volPos
	if volNeg < vol {
		vol = volNeg
	}
	if vol == 0 {
		return 0, errors.New("partition: one side has zero volume")
	}
	return cut / vol, nil
}
