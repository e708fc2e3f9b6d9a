package exp

import (
	"errors"
	"fmt"
	"math"
	"time"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/eig"
	"graphspar/internal/graph"
	"graphspar/internal/lsst"
	"graphspar/internal/partition"
	"graphspar/internal/pcg"
	"graphspar/internal/vecmath"
)

// ---------------------------------------------------------------- Table 1

// Table1Row compares the §3.6 estimators against generalized-Lanczos
// references on a spanning-tree sparsifier.
type Table1Row struct {
	Name       string
	V, E       int
	LMinRef    float64 // Lanczos bottom Ritz value ("eigs" stand-in)
	LMinEst    float64 // node-coloring estimate (eq. 18)
	LMinRelErr float64
	LMaxRef    float64 // long power iteration / Lanczos top
	LMaxEst    float64 // ≤10 generalized power iterations
	LMaxRelErr float64
}

// Table1 runs the extreme-eigenvalue estimation experiment.
func Table1(scale float64, seed uint64) ([]Table1Row, error) {
	var rows []Table1Row
	for _, w := range Table1Workloads() {
		g, err := w.Build(scale, seed)
		if err != nil {
			return nil, fmt.Errorf("exp: building %s: %w", w.Name, err)
		}
		tr, _, _, err := lsst.Extract(g, lsst.MaxWeight, seed)
		if err != nil {
			return nil, err
		}
		p := tr.Graph()
		// Estimates under test.
		lmaxEst, err := core.EstimateLambdaMax(g, p, tr, 10, seed)
		if err != nil {
			return nil, err
		}
		lminEst := core.EstimateLambdaMin(g, p)
		// References: long generalized power iteration for λmax, Lanczos
		// bottom for λmin.
		ref, err := eig.GeneralizedPowerMax(g, p, tr, 300, 1e-10, seed+7)
		if err != nil {
			return nil, err
		}
		k := 80
		if k > g.N()-2 {
			k = g.N() - 2
		}
		treeFactor, err := cholesky.NewLapSolver(p) // a tree factors with no fill
		if err != nil {
			return nil, err
		}
		vals, err := eig.GeneralizedLanczos(g, p, treeFactor, k, seed+13)
		if err != nil {
			return nil, err
		}
		lminRef := vals[0]
		if lminRef < 1 {
			lminRef = 1
		}
		lmaxRef := ref.Value
		if vals[len(vals)-1] > lmaxRef {
			lmaxRef = vals[len(vals)-1]
		}
		rows = append(rows, Table1Row{
			Name: w.Name, V: g.N(), E: g.M(),
			LMinRef: lminRef, LMinEst: lminEst,
			LMinRelErr: relErr(lminEst, lminRef),
			LMaxRef:    lmaxRef, LMaxEst: lmaxEst,
			LMaxRelErr: relErr(lmaxEst, lmaxRef),
		})
	}
	return rows, nil
}

func relErr(est, ref float64) float64 {
	if ref == 0 {
		return math.Abs(est)
	}
	return math.Abs(est-ref) / math.Abs(ref)
}

// ---------------------------------------------------------------- Table 2

// Table2Row reports the iterative SDD solver trade-off at σ² = 50 and 200.
type Table2Row struct {
	Name        string
	V, E        int
	Density50   float64 // |E_50|/|V|
	Iters50     int     // N_50: PCG iterations to 1e-3
	Sparsify50  time.Duration
	Density200  float64
	Iters200    int
	Sparsify200 time.Duration
}

// Table2 runs the preconditioned-solver experiment: sparsify at both σ²
// targets, factor each sparsifier, and count PCG iterations to
// ‖Ax−b‖ ≤ 1e-3‖b‖ for a random RHS.
func Table2(scale float64, seed uint64) ([]Table2Row, error) {
	var rows []Table2Row
	for _, w := range Table2Workloads() {
		g, err := w.Build(scale, seed)
		if err != nil {
			return nil, fmt.Errorf("exp: building %s: %w", w.Name, err)
		}
		row := Table2Row{Name: w.Name, V: g.N(), E: g.M()}
		for _, s2 := range []float64{50, 200} {
			t0 := time.Now()
			res, err := core.Sparsify(g, core.Options{SigmaSq: s2, Seed: seed})
			if err != nil && !errors.Is(err, core.ErrNoTarget) {
				return nil, fmt.Errorf("exp: sparsifying %s at σ²=%v: %w", w.Name, s2, err)
			}
			dur := time.Since(t0)
			its, err := pcgIterations(g, res.Sparsifier, seed)
			if err != nil {
				return nil, err
			}
			if s2 == 50 {
				row.Density50, row.Iters50, row.Sparsify50 = res.Density(), its, dur
			} else {
				row.Density200, row.Iters200, row.Sparsify200 = res.Density(), its, dur
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func pcgIterations(g, sparsifier *graph.Graph, seed uint64) (int, error) {
	m, err := pcg.NewCholPrecond(sparsifier)
	if err != nil {
		return 0, err
	}
	n := g.N()
	b := make([]float64, n)
	vecmath.NewRNG(seed + 99).FillNormal(b)
	vecmath.Deflate(b)
	x := make([]float64, n)
	res, err := pcg.SolveLaplacian(g, m, x, b, 1e-3, 10*n)
	if err != nil {
		return res.Iterations, err
	}
	return res.Iterations, nil
}

// ---------------------------------------------------------------- Table 3

// Table3Row reports direct vs sparsifier-accelerated partitioning.
type Table3Row struct {
	Name          string
	V, E          int
	Balance       float64       // |V₊|/|V₋| of the iterative method
	DirectTime    time.Duration // T_D
	DirectMem     uint64        // M_D proxy (bytes)
	IterativeTime time.Duration // T_I
	IterativeMem  uint64        // M_I proxy (bytes)
	RelErr        float64       // sign disagreement |V_dif|/|V|
}

// Table3 runs the spectral-partitioning experiment with σ² ≤ 200
// sparsifiers, matching §4.3.
func Table3(scale float64, seed uint64) ([]Table3Row, error) {
	var rows []Table3Row
	for _, w := range Table3Workloads() {
		g, err := w.Build(scale, seed)
		if err != nil {
			return nil, fmt.Errorf("exp: building %s: %w", w.Name, err)
		}
		// "A few inverse power iterations" (§4.3): both backends run the
		// same budget so the timing comparison is apples to apples.
		dir, err := partition.SpectralBisect(g, partition.Options{
			Method: partition.Direct, Seed: seed, MaxIter: 20, Tol: 1e-8,
		})
		if err != nil {
			return nil, fmt.Errorf("exp: direct partition of %s: %w", w.Name, err)
		}
		it, err := partition.SpectralBisect(g, partition.Options{
			Method: partition.Iterative, SigmaSq: 200, Seed: seed, MaxIter: 20, Tol: 1e-8,
			PCGTol: 1e-6, // sign cuts tolerate inexact inverse iterations
		})
		if err != nil {
			return nil, fmt.Errorf("exp: iterative partition of %s: %w", w.Name, err)
		}
		re, err := partition.SignError(dir.Signs, it.Signs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Name: w.Name, V: g.N(), E: g.M(),
			Balance:       it.Balance(),
			DirectTime:    dir.SetupTime + dir.SolveTime,
			DirectMem:     dir.MemProxyBytes,
			IterativeTime: it.SolveTime, // paper's T_I excludes sparsification
			IterativeMem:  it.MemProxyBytes,
			RelErr:        re,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------- Table 4

// Table4Row reports complex-network simplification at σ² ≈ 100.
type Table4Row struct {
	Name           string
	V, E           int
	SparsifyTime   time.Duration // T_tot
	EdgeReduction  float64       // |E| / |E_s|
	LambdaReduce   float64       // λ1(tree) / λ1(final): eigenvalue reduction
	EigTimeOrig    time.Duration // T_eig on the original graph
	EigTimeSparse  time.Duration // T_eig on the sparsifier
	SparsifierEdge int
}

// Table4 sparsifies each network to σ²≈100 and times the computation of
// the first 10 eigenvectors on original vs sparsified Laplacians (Lanczos
// on L⁺; PCG pseudoinverse for the original, direct Cholesky for the
// ultra-sparse sparsifier — mirroring how eigs exploits sparsity).
func Table4(scale float64, seed uint64) ([]Table4Row, error) {
	var rows []Table4Row
	for _, w := range Table4Workloads() {
		g, err := w.Build(scale, seed)
		if err != nil {
			return nil, fmt.Errorf("exp: building %s: %w", w.Name, err)
		}
		t0 := time.Now()
		res, err := core.Sparsify(g, core.Options{SigmaSq: 100, Seed: seed})
		if err != nil && !errors.Is(err, core.ErrNoTarget) {
			return nil, fmt.Errorf("exp: sparsifying %s: %w", w.Name, err)
		}
		ttot := time.Since(t0)

		// λ1 reduction: tree backbone vs final sparsifier.
		treeG := res.Tree.Graph()
		lTree, err := core.EstimateLambdaMax(g, treeG, res.Tree, 30, seed+1)
		if err != nil {
			return nil, err
		}
		lamReduce := lTree / math.Max(res.LambdaMax, 1)

		k := 10
		if k >= g.N()-1 {
			k = g.N() - 2
		}
		iters := 40
		// Original graph: PCG-backed pseudoinverse applies.
		origSolver := &eig.PCGSolver{G: g, M: pcg.NewJacobi(g), Tol: 1e-8, MaxIter: 4 * g.N()}
		te0 := time.Now()
		if _, _, err := eig.SmallestPairs(g, k, origSolver, iters, seed+3); err != nil {
			return nil, fmt.Errorf("exp: eig on original %s: %w", w.Name, err)
		}
		teOrig := time.Since(te0)
		// Sparsifier: direct factorization (ultra-sparse ⇒ cheap).
		spSolver, err := pcg.NewCholPrecond(res.Sparsifier)
		if err != nil {
			return nil, err
		}
		te1 := time.Now()
		if _, _, err := eig.SmallestPairs(res.Sparsifier, k, spSolver.S, iters, seed+3); err != nil {
			return nil, fmt.Errorf("exp: eig on sparsifier %s: %w", w.Name, err)
		}
		teSparse := time.Since(te1)

		rows = append(rows, Table4Row{
			Name: w.Name, V: g.N(), E: g.M(),
			SparsifyTime:   ttot,
			EdgeReduction:  float64(g.M()) / float64(res.Sparsifier.M()),
			LambdaReduce:   lamReduce,
			EigTimeOrig:    teOrig,
			EigTimeSparse:  teSparse,
			SparsifierEdge: res.Sparsifier.M(),
		})
	}
	return rows, nil
}
