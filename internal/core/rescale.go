package core

import (
	"errors"
	"fmt"
	"math"

	"graphspar/internal/cholesky"
	"graphspar/internal/graph"
)

// RescaleResult reports the outcome of off-tree edge re-scaling.
type RescaleResult struct {
	// Sparsifier is the re-weighted sparsifier (no longer a strict
	// subgraph: off-tree edge weights are scaled by Gamma).
	Sparsifier *graph.Graph
	// Gamma is the chosen off-tree scaling factor.
	Gamma float64
	// LambdaMax/LambdaMin/SigmaSq are the post-rescale estimates.
	LambdaMax, LambdaMin, SigmaSq float64
}

// RescaleOffTree implements the edge re-scaling extension the paper points
// to in §3.1 ([19]): each recovered off-tree edge stands in for the
// filtered-out edges spectrally similar to it, so scaling those weights up
// by a factor γ > 1 can further reduce κ(L_G, L_P) without adding edges.
//
// The routine line-searches γ over a geometric grid, estimating
// λmax (generalized power iterations) and λmin (node coloring — still an
// upper bound since scaling only off-tree edges keeps deg_P ≤ deg_G for
// γ ≤ γ_safe; beyond that the true λmin is tracked by Lanczos-free
// Rayleigh probing) and returns the best re-weighted sparsifier.
//
// Scaling is applied only to the off-tree edges recovered by Sparsify;
// tree edges keep original weights so the backbone solver stays exact.
func RescaleOffTree(g *graph.Graph, res *Result, gammas []float64, seed uint64) (*RescaleResult, error) {
	if res == nil || res.Sparsifier == nil {
		return nil, errors.New("core: RescaleOffTree needs a completed Sparsify result")
	}
	if len(res.OffTreeAddedIDs) == 0 {
		// Nothing to scale; return the sparsifier unchanged.
		return &RescaleResult{
			Sparsifier: res.Sparsifier, Gamma: 1,
			LambdaMax: res.LambdaMax, LambdaMin: res.LambdaMin, SigmaSq: res.SigmaSqAchieved,
		}, nil
	}
	if len(gammas) == 0 {
		gammas = []float64{1, 1.25, 1.5, 2, 3, 4}
	}
	best := &RescaleResult{Gamma: 1, LambdaMax: res.LambdaMax, LambdaMin: res.LambdaMin,
		SigmaSq: res.SigmaSqAchieved, Sparsifier: res.Sparsifier}

	offSet := make(map[[2]int]bool, len(res.OffTreeAddedIDs))
	for _, id := range res.OffTreeAddedIDs {
		e := g.Edge(id)
		offSet[[2]int{e.U, e.V}] = true
	}

	for _, gamma := range gammas {
		if gamma <= 0 {
			return nil, fmt.Errorf("core: non-positive gamma %v", gamma)
		}
		if gamma == 1 {
			continue // baseline already recorded
		}
		scaled := make([]graph.Edge, 0, res.Sparsifier.M())
		for _, e := range res.Sparsifier.Edges() {
			w := e.W
			if offSet[[2]int{e.U, e.V}] {
				w *= gamma
			}
			scaled = append(scaled, graph.Edge{U: e.U, V: e.V, W: w})
		}
		p, err := graph.New(g.N(), scaled)
		if err != nil {
			return nil, err
		}
		solver, err := cholesky.NewLapSolver(p)
		if err != nil {
			return nil, err
		}
		// With γ > 1 the sparsifier is no longer dominated by G, so λmin
		// can drop below 1; the degree-ratio bound still applies (it never
		// assumed domination).
		lmax, lmin, err := estimateExtremes(g, p, solver, 20, seed)
		if err != nil {
			return nil, err
		}
		if lmin <= 0 || math.IsInf(lmin, 0) {
			continue
		}
		s2 := lmax / lmin
		if s2 < best.SigmaSq {
			best = &RescaleResult{Sparsifier: p, Gamma: gamma, LambdaMax: lmax, LambdaMin: lmin, SigmaSq: s2}
		}
	}
	return best, nil
}
