package core

import (
	"context"
	"fmt"
	"slices"

	"graphspar/internal/cholesky"
	"graphspar/internal/graph"
	"graphspar/internal/vecmath"
)

// RefilterFactored runs densify at full size over an externally chosen
// candidate set: from the subgraph spanned by keptIDs, at most
// RefilterRounds passes, each factoring P, estimating the extreme
// generalized eigenvalues of (L_G, L_P) and, while the σ² target is
// unmet, admitting one heat-ranked, batchFraction-capped batch of the
// candidates that beat θσ (eq. 15) — the rounds of Sparsify, without the
// endpoint-similarity rule, which these passes have never applied. The
// batch pipeline's sharded plan uses it to re-admit partition cut edges
// after stitching; its multilevel plan uses it to re-filter each finer
// level after interpolating a coarse selection.
//
// keptIDs must span a connected subgraph of g and be disjoint from
// candIDs; neither slice is modified. The returned kept slice is keptIDs
// followed by the admitted candidates in admission order, recovered
// counts them, and lmax/lmin are the estimates of the last pass.
//
// solver is the last pass's factorization whenever it is a factor of the
// returned p — the pass ended with nothing chosen (target met or no
// candidates left) — handed over so the caller's certificate need not
// factor p again. It is nil when the last pass still added edges: the
// round cap ran out with p changed after it was factored. The caller owns
// it.
func RefilterFactored(ctx context.Context, g *graph.Graph, keptIDs, candIDs []int, opt Options, seed uint64) (p *graph.Graph, kept []int, recovered int, lmax, lmin float64, solver *cholesky.LapSolver, err error) {
	return refilter(ctx, g, keptIDs, candIDs, opt, RefilterRounds, seed)
}

// Refilter is RefilterFactored with the factor dropped, its own pass cap
// and embedding worker count: the signature cmd/bench's probe calls.
func Refilter(ctx context.Context, g *graph.Graph, keptIDs, candIDs []int, opt Options, rounds, workers int, seed uint64) (p *graph.Graph, kept []int, recovered int, lmax, lmin float64, err error) {
	opt.EmbedWorkers = workers
	p, kept, recovered, lmax, lmin, _, err = refilter(ctx, g, keptIDs, candIDs, opt, rounds, seed)
	return p, kept, recovered, lmax, lmin, err
}

// refilter is RefilterFactored with a pass cap of rounds.
func refilter(ctx context.Context, g *graph.Graph, keptIDs, candIDs []int, opt Options, rounds int, seed uint64) (*graph.Graph, []int, int, float64, float64, *cholesky.LapSolver, error) {
	p, err := g.SubgraphEdges(keptIDs)
	if err != nil {
		return nil, nil, 0, 0, 0, nil, fmt.Errorf("refilter: kept subgraph: %w", err)
	}
	d, err := densify(ctx, g, p, nil, candIDs, &opt, vecmath.NewRNG(seed), rounds, false)
	if err != nil {
		return nil, nil, 0, 0, 0, nil, err
	}
	solver, _ := d.solver.(*cholesky.LapSolver)
	return d.p, slices.Concat(keptIDs, d.added), len(d.added), d.lmax, d.lmin, solver, nil
}
