package main

import (
	"errors"
	"fmt"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/graph"
	"graphspar/internal/pcg"
	"graphspar/internal/vecmath"
)

const (
	sigma2      = 100.0 // σ² of every workload
	solveTol    = 1e-6  // PCG relative-residual target
	residualTol = 1e-6  // accepted true residual ‖b − L_G x‖ / ‖b‖
	qualityRHS  = 4     // right-hand sides behind pcg_iters
	verifySteps = 60    // Lanczos depth of the harness's own κ̂
)

// checkSparsifier is the structural check on every op's output: P lives
// on G's vertex set, is connected (hence spanning), and every edge of P is
// an edge of G with G's weight.
func checkSparsifier(g, p *graph.Graph) error {
	if p == nil {
		return errors.New("check: no sparsifier")
	}
	if p.N() != g.N() {
		return fmt.Errorf("check: sparsifier has %d vertices, graph has %d", p.N(), g.N())
	}
	if !p.IsConnected() {
		return errors.New("check: sparsifier is not connected")
	}
	idx := g.EdgeIndex()
	for _, e := range p.Edges() {
		i, ok := idx[[2]int{e.U, e.V}]
		if !ok {
			return fmt.Errorf("check: sparsifier edge (%d,%d) is not in the graph", e.U, e.V)
		}
		if w := g.Edge(i).W; w != e.W {
			return fmt.Errorf("check: sparsifier edge (%d,%d) has weight %g, graph has %g", e.U, e.V, e.W, w)
		}
	}
	return nil
}

// checkSolution recomputes the true residual with LapMulVec; the solver's
// own recurrence residual is not trusted.
func checkSolution(g *graph.Graph, x, b []float64) error {
	r := make([]float64, len(b))
	g.LapMulVec(r, x)
	vecmath.Sub(r, b, r)
	if rel := vecmath.RelResidual(r, b); !(rel <= residualTol) {
		return fmt.Errorf("check: true residual %.3g exceeds %.0e", rel, residualTol)
	}
	return nil
}

// rhs fills a zero-mean right-hand side from its own seeded stream.
func rhs(n int, seed uint64) []float64 {
	b := make([]float64, n)
	vecmath.NewRNG(seed).FillNormal(b)
	vecmath.Deflate(b)
	return b
}

// solve runs one PCG solve to solveTol and verifies it.
func solve(g *graph.Graph, m pcg.Preconditioner, b []float64) (int, error) {
	x := make([]float64, g.N())
	res, err := pcg.SolveLaplacian(g, m, x, b, solveTol, 0)
	if err != nil {
		return res.Iterations, err
	}
	return res.Iterations, checkSolution(g, x, b)
}

// quality is the speed numbers' other half, computed after timing on the
// final (G, P) of a run.
type quality struct {
	condRatio    float64 // κ̂(L_G, L_P) / σ²
	edgesPerNode float64
	pcgIters     int
	factorNNZ    int
}

// pair is one final (graph, sparsifier) of a run; serve_txn has one per
// client graph, every other workload exactly one.
type pair struct{ g, p *graph.Graph }

// measureQuality factors each P once and uses that factor both for the
// harness's own κ̂ (60 Lanczos steps, seeded apart from the run) and as
// the PCG preconditioner of qualityRHS fixed-seed solves spread round-robin
// over the pairs. cond_ratio is the worst pair's; density pools them.
func measureQuality(pairs []pair, seed uint64) (quality, error) {
	var q quality
	var edges, nodes int
	solvers := make([]*cholesky.LapSolver, len(pairs))
	for i, pr := range pairs {
		if err := checkSparsifier(pr.g, pr.p); err != nil {
			return q, err
		}
		ls, err := cholesky.NewLapSolver(pr.p)
		if err != nil {
			return q, fmt.Errorf("quality: factor P: %w", err)
		}
		solvers[i] = ls
		_, _, cond, err := core.VerifySimilarity(pr.g, pr.p, ls, verifySteps, seed^0x5eed0fc0ffee+uint64(i))
		if err != nil {
			return q, fmt.Errorf("quality: verify: %w", err)
		}
		q.condRatio = max(q.condRatio, cond/sigma2)
		q.factorNNZ += ls.FactorNNZ()
		edges += pr.p.M()
		nodes += pr.p.N()
	}
	q.edgesPerNode = float64(edges) / float64(nodes)
	for k := 0; k < qualityRHS; k++ {
		i := k % len(pairs)
		it, err := solve(pairs[i].g, &pcg.CholPrecond{S: solvers[i]}, rhs(pairs[i].g.N(), seed+0x9e3779b97f4a7c15*uint64(k+1)))
		if err != nil {
			return q, fmt.Errorf("quality: solve %d: %w", k, err)
		}
		q.pcgIters += it
	}
	return q, nil
}
