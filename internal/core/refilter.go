package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"graphspar/internal/cholesky"
	"graphspar/internal/graph"
	"graphspar/internal/vecmath"
)

// Refilter runs bounded global embedding passes over a partial edge
// selection: starting from the subgraph spanned by keptIDs, it estimates
// the extreme generalized eigenvalues of (L_G, L_P), and while the σ²
// target is unmet it recovers the candidate edges whose normalized Joule
// heat beats the similarity-aware threshold (eq. 15) — exactly the
// per-round filter of Sparsify, applied at full size to an externally
// chosen candidate set. The batch pipeline's sharded plan uses it to
// re-admit partition cut edges after stitching; its multilevel plan uses
// it to re-filter each finer level after interpolating a coarse selection.
//
// Each pass adds one heat-ranked, BatchFraction-capped batch of
// candidates and costs one full-size factorization; passes stop early
// once the estimated σ² meets the target. keptIDs must span a connected
// subgraph of g. The returned kept slice is the final edge-id selection
// (the input slices are not modified), recovered counts the admitted
// candidates, and lmax/lmin are the estimates of the last pass.
func Refilter(ctx context.Context, g *graph.Graph, keptIDs, candIDs []int, opt Options, rounds, workers int, seed uint64) (p *graph.Graph, kept []int, recovered int, lmax, lmin float64, err error) {
	t, r, powerIters, batchFraction := opt.EffectiveEmbed(g.N())
	sigma := opt.SigmaSq
	rng := vecmath.NewRNG(seed)

	kept = append([]int(nil), keptIDs...)
	cands := append([]int(nil), candIDs...)
	p, err = g.SubgraphEdges(kept)
	if err != nil {
		return nil, nil, 0, 0, 0, fmt.Errorf("refilter: kept subgraph: %w", err)
	}
	for pass := 0; pass < rounds; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, 0, 0, err
		}
		solver, err := cholesky.NewLapSolverWS(p, opt.Workspace.Chol())
		if err != nil {
			return nil, nil, 0, 0, 0, fmt.Errorf("refilter: solver: %w", err)
		}
		lmax, err = EstimateLambdaMax(g, p, solver, powerIters, rng.Uint64())
		if err != nil {
			return nil, nil, 0, 0, 0, fmt.Errorf("refilter: λmax estimation: %w", err)
		}
		lmin = EstimateLambdaMin(g, p)
		if lmax < lmin {
			lmax = lmin
		}
		if lmin <= 0 || lmax/lmin <= sigma || len(cands) == 0 {
			break
		}

		heats, maxHeat := embedOffTree(g, solver, cands, t, r, rng.Uint64(), workers, opt.Workspace)
		theta := Threshold(sigma, lmin, lmax, t)

		// Rank the passing candidates by heat and add them in capped
		// batches — §3.7's small-portions discipline at full size. A loose
		// estimate (think a badly cut SBM, or a deep coarse selection) can
		// make θσ admit nearly every candidate; accepting them all at once
		// would densify far past what the target needs.
		type cand struct {
			pos  int
			heat float64
		}
		var passing []cand
		if maxHeat > 0 {
			for i, h := range heats {
				if h/maxHeat >= theta {
					passing = append(passing, cand{i, h})
				}
			}
		}
		sort.Slice(passing, func(a, b int) bool {
			if passing[a].heat != passing[b].heat {
				return passing[a].heat > passing[b].heat
			}
			return passing[a].pos < passing[b].pos
		})
		limit := int(math.Ceil(batchFraction * float64(len(passing))))
		if limit < 1 {
			limit = 1
		}
		if len(passing) == 0 {
			// Estimates say the target is unmet but no candidate beats the
			// threshold: force the hottest candidate in to keep moving.
			best, bestHeat := -1, -1.0
			for i, h := range heats {
				if h > bestHeat {
					best, bestHeat = i, h
				}
			}
			if best < 0 {
				break
			}
			passing = []cand{{best, bestHeat}}
		}
		if limit > len(passing) {
			limit = len(passing)
		}
		taken := make(map[int]bool, limit)
		for _, c := range passing[:limit] {
			taken[c.pos] = true
			kept = append(kept, cands[c.pos])
		}
		recovered += limit
		rest := cands[:0:0]
		for i, id := range cands {
			if !taken[i] {
				rest = append(rest, id)
			}
		}
		cands = rest
		p, err = g.SubgraphEdges(kept)
		if err != nil {
			return nil, nil, 0, 0, 0, fmt.Errorf("refilter: densified subgraph: %w", err)
		}
	}
	return p, kept, recovered, lmax, lmin, nil
}
