package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"graphspar/internal/cholesky"
	"graphspar/internal/graph"
	"graphspar/internal/obs"
	"graphspar/internal/vecmath"
)

// SelectEdges is the filter step of one §3.7 round (steps 4–6), shared by
// Sparsify, Refilter and the dynamic maintainer's localized re-filter:
// threshold the candidates at θσ (eq. 15), rank the passing ones by Joule
// heat, and admit a small portion — at most ceil(batchFraction·passing),
// at least one — skipping, when similarity is on, any edge with an
// endpoint already claimed by an edge admitted this round.
//
// heats is parallel to candIDs (edge ids of g) and maxHeat normalizes it.
// The ranking is the total order (heat desc, position asc), so equal heats
// never leave the choice to the sort algorithm. When no candidate beats θσ
// the hottest one is forced in, so a round whose estimates say the target
// is unmet always makes progress. chosen holds positions into candIDs in
// admission order; passing counts the candidates that beat θσ.
func SelectEdges(g *graph.Graph, candIDs []int, heats []float64, maxHeat, theta, batchFraction float64, similarity bool) (chosen []int, passing int) {
	var ranked []int
	if maxHeat > 0 {
		for i, h := range heats {
			if h/maxHeat >= theta {
				ranked = append(ranked, i)
			}
		}
	}
	passing = len(ranked)
	slices.SortFunc(ranked, func(a, b int) int {
		if heats[a] != heats[b] {
			return cmp.Compare(heats[b], heats[a])
		}
		return cmp.Compare(a, b)
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
// identical graphs estimator noise can invert the two. A one-vertex graph
// is its own sparsifier: both Laplacians vanish on its only (constant)
// vector, so the pencil is trivial and κ = 1.
func estimateExtremes(g, p *graph.Graph, solver Solver, iters int, seed uint64) (lmax, lmin float64, err error) {
	if g.N() == 1 {
		return 1, 1, nil
	}
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

// filterRound is the body of one pass of densify against the current
// sparsifier p and its L_P⁺ applier: estimate the extreme eigenvalues and,
// unless the target is met or nothing can be added, embed the candidates
// with g's EffectiveEmbed settings, set θσ and select the pass's batch.
// The returned stats carry the estimates, θσ and the passing count;
// chosen (positions into candIDs) is empty exactly when the loop is done —
// target met or no candidates.
func filterRound(ctx context.Context, g, p *graph.Graph, solver Solver, candIDs []int, opt *Options, rng *vecmath.RNG, similarity bool) (stats RoundStats, chosen []int, err error) {
	lmax, lmin, err := estimateExtremes(g, p, solver, powerIters, rng.Uint64())
	if err != nil {
		return stats, nil, err
	}
	stats = RoundStats{LambdaMax: lmax, LambdaMin: lmin, SigmaSqEst: lmax / lmin}
	if stats.SigmaSqEst <= opt.SigmaSq || len(candIDs) == 0 {
		return stats, nil, nil
	}
	t, r, _, _ := opt.EffectiveEmbed(g.N())
	embedSpan := obs.StartSpan(ctx, "embed")
	heats, maxHeat := NewEdgeScorer(g, solver, t, r, rng.Uint64(), opt.EmbedWorkers).Score(g, candIDs)
	embedSpan.End()
	stats.Threshold = Threshold(opt.SigmaSq, lmin, lmax, t)
	chosen, stats.Candidates = SelectEdges(g, candIDs, heats, maxHeat, stats.Threshold, batchFraction, similarity)
	return stats, chosen, nil
}

// densified is where one run of densify stopped.
type densified struct {
	// p is the densified sparsifier and solver its L_P⁺ applier: the
	// starting applier while no pass added edges, then the factor of p
	// built at the top of the last pass. solver is nil when the round cap
	// ran out after a pass that added edges, so p was never factored or
	// estimated.
	p      *graph.Graph
	solver Solver
	// added holds the admitted candidate ids in admission order.
	added  []int
	rounds []RoundStats
	// lmax, lmin are the last pass's estimates.
	lmax, lmin float64
}

// densify is the §3.7 densification loop, the one both batch filters run
// (SparsifyCtx from the backbone tree, RefilterFactored from a kept
// selection). Starting from p with the L_P⁺ applier solver — nil to
// factor p at the top of the first pass — it runs at most rounds passes
// over the candidate ids cands: factor p unless it already has an
// applier, filterRound, and, while a batch is chosen, add it to p, which
// voids the applier. The loop stops at the first pass that chooses
// nothing. cands is not modified and must be disjoint from p's edges;
// rng drives every estimate and embedding.
func densify(ctx context.Context, g, p *graph.Graph, solver Solver, cands []int, opt *Options, rng *vecmath.RNG, rounds int, similarity bool) (*densified, error) {
	d := &densified{p: p, solver: solver}
	cands = slices.Clone(cands)
	for round := 1; round <= rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if d.solver == nil {
			chol, err := factor(ctx, d.p)
			if err != nil {
				return nil, fmt.Errorf("core: inner solver setup: %w", err)
			}
			d.solver = chol
		}
		stats, chosen, err := filterRound(ctx, g, d.p, d.solver, cands, opt, rng, similarity)
		if err != nil {
			return nil, fmt.Errorf("core: λmax estimation failed in round %d: %w", round, err)
		}
		stats.Round = round
		d.lmax, d.lmin = stats.LambdaMax, stats.LambdaMin
		if len(chosen) == 0 {
			stats.EdgesTotal = d.p.M()
			d.rounds = append(d.rounds, stats)
			return d, nil
		}
		var added []int
		added, cands = take(cands, chosen)
		d.added = append(d.added, added...)
		edges := make([]graph.Edge, len(added))
		for i, id := range added {
			edges[i] = g.Edge(id)
		}
		if d.p, err = d.p.AddEdges(edges); err != nil {
			return nil, fmt.Errorf("core: densification failed: %w", err)
		}
		d.solver = nil
		stats.Added = len(edges)
		stats.EdgesTotal = d.p.M()
		d.rounds = append(d.rounds, stats)
	}
	return d, nil
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
