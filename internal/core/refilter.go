package core

import (
	"context"
	"fmt"

	"graphspar/internal/cholesky"
	"graphspar/internal/graph"
	"graphspar/internal/vecmath"
)

// RefilterFactored runs bounded global embedding passes over a partial
// edge selection: starting from the subgraph spanned by keptIDs, it
// estimates the extreme generalized eigenvalues of (L_G, L_P), and while
// the σ² target is unmet it recovers the candidate edges whose normalized
// Joule heat beats the similarity-aware threshold (eq. 15) — exactly the
// per-round filter of Sparsify, applied at full size to an externally
// chosen candidate set. The batch pipeline's sharded plan uses it to
// re-admit partition cut edges after stitching; its multilevel plan uses
// it to re-filter each finer level after interpolating a coarse selection.
//
// Each pass adds one heat-ranked, batchFraction-capped batch of
// candidates and costs one full-size factorization; passes stop early
// once the estimated σ² meets the target. keptIDs must span a connected
// subgraph of g. The returned kept slice is the final edge-id selection
// (the input slices are not modified), recovered counts the admitted
// candidates, and lmax/lmin are the estimates of the last pass.
//
// solver is the last pass's factorization, handed over so the caller's
// certificate need not factor p again, whenever it is a factor of the
// returned p: the pass ended with nothing chosen (target met or no
// candidates left). It is nil when the last pass still added edges — the
// round cap ran out with p changed after it was factored — or when
// rounds ≤ 0. The caller owns it.
func RefilterFactored(ctx context.Context, g *graph.Graph, keptIDs, candIDs []int, opt Options, rounds, workers int, seed uint64) (p *graph.Graph, kept []int, recovered int, lmax, lmin float64, solver *cholesky.LapSolver, err error) {
	opt.EmbedWorkers = workers
	rng := vecmath.NewRNG(seed)

	kept = append([]int(nil), keptIDs...)
	cands := append([]int(nil), candIDs...)
	p, err = g.SubgraphEdges(kept)
	if err != nil {
		return nil, nil, 0, 0, 0, nil, fmt.Errorf("refilter: kept subgraph: %w", err)
	}
	for pass := 0; pass < rounds; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, 0, 0, nil, err
		}
		solver, err = factor(ctx, p)
		if err != nil {
			return nil, nil, 0, 0, 0, nil, fmt.Errorf("refilter: solver: %w", err)
		}
		// Capped like a Sparsify round — a loose estimate (think a badly
		// cut SBM, or a deep coarse selection) can make θσ admit nearly
		// every candidate, and accepting them all at once would densify far
		// past what the target needs — but without the endpoint-similarity
		// rule, which these passes have never applied.
		stats, chosen, err := filterRound(ctx, g, p, solver, cands, &opt, rng, false)
		if err != nil {
			return nil, nil, 0, 0, 0, nil, fmt.Errorf("refilter: λmax estimation: %w", err)
		}
		lmax, lmin = stats.LambdaMax, stats.LambdaMin
		if len(chosen) == 0 {
			break
		}
		var added []int
		added, cands = take(cands, chosen)
		kept = append(kept, added...)
		recovered += len(added)
		solver = nil // p changes below; the factor is of the old p
		p, err = g.SubgraphEdges(kept)
		if err != nil {
			return nil, nil, 0, 0, 0, nil, fmt.Errorf("refilter: densified subgraph: %w", err)
		}
	}
	return p, kept, recovered, lmax, lmin, solver, nil
}

// Refilter is RefilterFactored with the factor dropped: the signature
// cmd/bench's probe calls, and nothing more than the delegation.
func Refilter(ctx context.Context, g *graph.Graph, keptIDs, candIDs []int, opt Options, rounds, workers int, seed uint64) (p *graph.Graph, kept []int, recovered int, lmax, lmin float64, err error) {
	p, kept, recovered, lmax, lmin, _, err = RefilterFactored(ctx, g, keptIDs, candIDs, opt, rounds, workers, seed)
	return p, kept, recovered, lmax, lmin, err
}
