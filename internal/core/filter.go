package core

import (
	"context"
	"math"
	"sort"

	"graphspar/internal/cholesky"
	"graphspar/internal/graph"
	"graphspar/internal/obs"
	"graphspar/internal/vecmath"
)

// SelectEdges is the filter step of one §3.7 round (steps 4–6), shared by
// Sparsify, Refilter and the dynamic maintainer's localized re-filter:
// threshold the candidates at θσ (eq. 15), rank the passing ones by Joule
// heat, and admit a small portion — at most ceil(batchFraction·passing),
// at least one, never more than budget — skipping, when similarity is on,
// any edge with an endpoint already claimed by an edge admitted this
// round.
//
// heats is parallel to candIDs (edge ids of g) and maxHeat normalizes it.
// The ranking is the total order (heat desc, position asc), so equal heats
// never leave the choice to the sort algorithm. When no candidate beats θσ
// the hottest one is forced in, so a round whose estimates say the target
// is unmet always makes progress. chosen holds positions into candIDs in
// admission order; passing counts the candidates that beat θσ.
func SelectEdges(g *graph.Graph, candIDs []int, heats []float64, maxHeat, theta, batchFraction float64, budget int, similarity bool) (chosen []int, passing int) {
	var ranked []int
	if maxHeat > 0 {
		for i, h := range heats {
			if h/maxHeat >= theta {
				ranked = append(ranked, i)
			}
		}
	}
	passing = len(ranked)
	sort.Slice(ranked, func(a, b int) bool {
		if heats[ranked[a]] != heats[ranked[b]] {
			return heats[ranked[a]] > heats[ranked[b]]
		}
		return ranked[a] < ranked[b]
	})
	if passing == 0 && len(heats) > 0 {
		// Estimator noise guard: the σ² estimates disagree with the heats.
		best := 0
		for i, h := range heats {
			if h > heats[best] {
				best = i
			}
		}
		ranked = []int{best}
	}
	limit := int(math.Ceil(batchFraction * float64(passing)))
	if limit < 1 {
		limit = 1
	}
	if budget < limit {
		limit = budget
	}
	claimed := make(map[int]bool)
	for _, pos := range ranked {
		if len(chosen) >= limit {
			break
		}
		e := g.Edge(candIDs[pos])
		if similarity && (claimed[e.U] || claimed[e.V]) {
			continue
		}
		claimed[e.U], claimed[e.V] = true, true
		chosen = append(chosen, pos)
	}
	return chosen, passing
}

// estimateExtremes estimates λmax (power iterations, §3.6.1) and λmin
// (node coloring, §3.6.2) of L_P⁺L_G, clamping λmax up to λmin: on nearly
// identical graphs estimator noise can invert the two.
func estimateExtremes(g, p *graph.Graph, solver Solver, iters int, seed uint64) (lmax, lmin float64, err error) {
	lmax, err = EstimateLambdaMax(g, p, solver, iters, seed)
	if err != nil {
		return 0, 0, err
	}
	lmin = EstimateLambdaMin(g, p)
	if lmax < lmin {
		lmax = lmin
	}
	return lmax, lmin, nil
}

// filterRound is the body of one §3.7 iteration against the current
// sparsifier p and its L_P⁺ applier: estimate the extreme eigenvalues and,
// unless the target is met or nothing can be added, embed the candidates,
// set θσ and select the round's batch. opt must have its embedding
// defaults applied. The returned stats carry the estimates, θσ and the
// passing count; chosen (positions into candIDs) is empty exactly when the
// caller's loop is done — target met, no candidates, or no budget.
func filterRound(ctx context.Context, g, p *graph.Graph, solver Solver, candIDs []int, opt *Options, rng *vecmath.RNG, budget int, similarity bool) (stats RoundStats, chosen []int, err error) {
	lmax, lmin, err := estimateExtremes(g, p, solver, powerIters, rng.Uint64())
	if err != nil {
		return stats, nil, err
	}
	stats = RoundStats{LambdaMax: lmax, LambdaMin: lmin, SigmaSqEst: lmax / lmin}
	if stats.SigmaSqEst <= opt.SigmaSq || len(candIDs) == 0 || budget <= 0 {
		return stats, nil, nil
	}
	embedSpan := obs.StartSpan(ctx, "embed")
	heats, maxHeat := NewEdgeScorer(g, solver, opt.T, opt.NumVectors, rng.Uint64(), opt.EmbedWorkers).Score(g, candIDs)
	embedSpan.End()
	stats.Threshold = Threshold(opt.SigmaSq, lmin, lmax, opt.T)
	chosen, stats.Candidates = SelectEdges(g, candIDs, heats, maxHeat, stats.Threshold, batchFraction, budget, similarity)
	return stats, chosen, nil
}

// take splits ids into the entries at the given positions, in that
// order, and the rest, compacted in place.
func take(ids, positions []int) (taken, rest []int) {
	taken = make([]int, len(positions))
	drop := make([]bool, len(ids))
	for i, pos := range positions {
		taken[i] = ids[pos]
		drop[pos] = true
	}
	rest = ids[:0]
	for i, id := range ids {
		if !drop[i] {
			rest = append(rest, id)
		}
	}
	return taken, rest
}

// factor builds the loop's inner direct solver for p — ordering plus
// Cholesky factorization — under a "factor" span, so a trace files that
// time under its own name instead of the enclosing phase's self time.
func factor(ctx context.Context, p *graph.Graph) (*cholesky.LapSolver, error) {
	defer obs.StartSpan(ctx, obs.PhaseFactor).End()
	return cholesky.NewLapSolver(p)
}
