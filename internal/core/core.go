// Package core implements the paper's contribution: similarity-aware
// spectral graph sparsification by edge filtering (Feng, DAC 2018).
//
// Given a weighted undirected connected graph G and a target spectral
// similarity σ² (an upper bound on the relative condition number
// κ(L_G, L_P)), Sparsify returns an ultra-sparse subgraph P built from a
// spanning-tree backbone plus the off-tree edges whose *Joule heat* —
// computed by t-step generalized power iterations with r random vectors
// (eq. 6/12) — exceeds the similarity-aware threshold θσ (eq. 15). An
// iterative densification loop (§3.7) re-estimates the extreme
// generalized eigenvalues (λmax by power iterations §3.6.1, λmin by node
// coloring §3.6.2) after each batch of edges until the target is met.
//
// One round of that loop is written once. filterRound is §3.7 steps 1–6
// against the current L_P solver (the backbone tree's O(n) solve first,
// a sparse Cholesky factor of P refactored each round after that):
// estimate λmax/λmin, stop if σ² is met, embed the candidates, set θσ,
// and hand the heats to SelectEdges — threshold, rank by heat, cap the
// batch, check endpoint similarity. SparsifyCtx (tree start, round
// statistics, edge budget), Refilter (an externally chosen selection and
// candidate set) and the dynamic maintainer's localized re-filter
// (retained probe vectors, SelectEdges only) are loop shells around it.
//
// The embedding is written once too: EdgeScorer is the only code that
// starts and advances probe vectors, over however many goroutines
// Options.EmbedWorkers allows; a round's heats are one scorer built,
// scored and dropped, the maintainer's retained vectors one kept.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"graphspar/internal/cholesky"
	"graphspar/internal/eig"
	"graphspar/internal/graph"
	"graphspar/internal/lsst"
	"graphspar/internal/params"
	"graphspar/internal/tree"
	"graphspar/internal/vecmath"
)

// ErrNoTarget is returned, together with the best sparsifier found, when
// the densification loop ends — round cap or edge budget — above the σ²
// target. A bad target itself is rejected with params.ErrBadSigma2, the
// one sentinel every pipeline shares.
var ErrNoTarget = errors.New("core: similarity target not reached")

// The §3.7 loop's fixed settings.
const (
	// maxRounds caps the densification iterations of one Sparsify run.
	maxRounds = 30
	// batchFraction caps how many passing candidates one round admits, as
	// a fraction of the candidates that beat θσ — §3.7 adds edges in
	// "small portions" so the estimates are refreshed before the next.
	batchFraction = 0.25
	// powerIters caps the λmax power iterations of §3.6.1 (the paper
	// reports fewer than 10 suffice).
	powerIters = 10
	// RefilterRounds caps the full-size embedding passes of one Refilter
	// call in the batch pipeline — each pass admits one heat-ranked,
	// batchFraction-capped batch and costs one factorization, and passes
	// stop early once the estimated σ² meets the target — and the
	// localized re-filter rounds the dynamic maintainer runs per Apply.
	RefilterRounds = 4
)

// Options configures Sparsify.
type Options struct {
	// SigmaSq is the target σ² ≥ κ(L_G, L_P) (e.g. 50, 100, 200). Required.
	SigmaSq float64
	// T is the number of generalized power-iteration steps for the edge
	// embedding (paper: t = 2 suffices; Fig. 2 uses t = 1). Default 2.
	T int
	// NumVectors is r, the number of random probe vectors (paper:
	// O(log |V|)). Default ceil(log2 n).
	NumVectors int
	// DisableSimilarity turns off the per-round dissimilarity rule (§3.7
	// step 6), which accepts a candidate only if neither endpoint was
	// claimed by an edge accepted earlier in the round. The rule is on by
	// default; the ablation benchmarks switch it off.
	DisableSimilarity bool
	// MaxEdges optionally caps the sparsifier size (tree edges included).
	// When the budget is hit, densification stops even if the σ² target
	// is unmet (Result is returned with ErrNoTarget in that case). Zero
	// means unlimited. Useful for equal-budget baseline comparisons (A5).
	MaxEdges int
	// EmbedWorkers caps the goroutines used for the r independent
	// probe-vector solves of each embedding pass (≤ 1 = one). The batch
	// pipeline sets it from its own worker count (engine.Options.Workers);
	// results are bit-identical for every value, see NewEdgeScorer.
	EmbedWorkers int
	// Seed drives every random choice. Default 1.
	Seed uint64
}

// EffectiveEmbed reports the embedding settings Sparsify will actually
// use on an n-vertex graph — T and NumVectors (r = O(log n) when unset)
// with defaults applied, followed by the fixed powerIters and
// batchFraction. Refilter and the dynamic maintainer call this so their
// full-size embeddings can never drift from a Sparsify run's.
func (o Options) EffectiveEmbed(n int) (t, r, iters int, fraction float64) {
	t = o.T
	if t <= 0 {
		t = 2
	}
	r = o.NumVectors
	if r <= 0 {
		r = int(math.Ceil(math.Log2(float64(n + 1))))
		if r < 1 {
			r = 1
		}
	}
	return t, r, powerIters, batchFraction
}

func (o *Options) defaults(n int) error {
	if err := params.Sigma2(o.SigmaSq); err != nil {
		return err
	}
	o.T, o.NumVectors, _, _ = o.EffectiveEmbed(n)
	if o.Seed == 0 {
		o.Seed = 1
	}
	return nil
}

// RoundStats records one densification iteration.
type RoundStats struct {
	Round      int
	LambdaMax  float64 // power-iteration estimate before this round's additions
	LambdaMin  float64 // node-coloring estimate
	SigmaSqEst float64 // λmax/λmin
	Threshold  float64 // θσ for this round
	Candidates int     // off-tree edges passing the heat filter
	Added      int     // edges actually added after the similarity check
	EdgesTotal int     // sparsifier size after the round
}

// Result is the output of Sparsify.
type Result struct {
	// Sparsifier is P: the backbone tree plus recovered off-tree edges,
	// with original edge weights.
	Sparsifier *graph.Graph
	// Tree is the rooted backbone.
	Tree *tree.Tree
	// TreeEdgeIDs and OffTreeAddedIDs index into g.Edges().
	TreeEdgeIDs     []int
	OffTreeAddedIDs []int
	// LambdaMax/LambdaMin are the final extreme-eigenvalue estimates of
	// L_P⁺L_G; SigmaSqAchieved = LambdaMax/LambdaMin ≤ Options.SigmaSq on
	// success.
	LambdaMax, LambdaMin float64
	SigmaSqAchieved      float64
	// TotalStretch is st_P(G) of the backbone tree (eq. 4).
	TotalStretch float64
	Rounds       []RoundStats
	// Solver is the loop's last Cholesky factorization, handed over so
	// the caller's certificate (or preconditioner) need not factor
	// Sparsifier a second time: it is always a factor of exactly the
	// returned Sparsifier, and nil when no round added an edge — P is
	// then the bare tree, which the loop solved through Tree. The caller
	// owns it; nothing in core keeps a reference.
	Solver *cholesky.LapSolver
}

// Density returns |E_P| / |V|, the sparsifier density the paper reports
// (Table 2's |Eσ²|/|V| column).
func (r *Result) Density() float64 {
	return float64(r.Sparsifier.M()) / float64(r.Sparsifier.N())
}

// Solver applies x = L_P⁺ b, the Laplacian pseudoinverse of the current
// sparsifier. The filter loops use two: the backbone *tree.Tree (exact,
// O(n)) while P is the bare tree, then a *cholesky.LapSolver refactored
// every round. eig.PCGSolver also satisfies it for callers that want an
// iterative reference.
type Solver interface {
	Solve(x, b []float64)
}

// EstimateLambdaMin implements the node-coloring bound of §3.6.2 (eq. 18):
// λ̃min = min_p L_G(p,p) / L_P(p,p), the single-node restriction of the
// Courant–Fischer quotient. It upper-bounds λmin and is exact when the
// minimizing coloring isolates one vertex. Runs in O(n + m).
func EstimateLambdaMin(g, p *graph.Graph) float64 {
	dg := g.WeightedDegrees()
	dp := p.WeightedDegrees()
	best := math.Inf(1)
	for i := range dg {
		if dp[i] <= 0 {
			continue
		}
		if r := dg[i] / dp[i]; r < best {
			best = r
		}
	}
	if math.IsInf(best, 1) {
		return 1
	}
	return best
}

// EstimateLambdaMax runs generalized power iterations (§3.6.1) for
// λmax(L_P⁺L_G) with the supplied L_P⁺ applier.
func EstimateLambdaMax(g, p *graph.Graph, solver Solver, iters int, seed uint64) (float64, error) {
	res, err := eig.GeneralizedPowerMax(g, p, solver, iters, 1e-4, seed)
	if err != nil {
		return 0, err
	}
	return res.Value, nil
}

// Threshold computes θσ per eq. 15: off-tree edges whose normalized Joule
// heat exceeds (σ²·λmin/λmax)^(2t+1) are recovered. Values ≥ 1 mean the
// current sparsifier already meets the target.
func Threshold(sigmaSq, lambdaMin, lambdaMax float64, t int) float64 {
	if lambdaMax <= 0 {
		return 1
	}
	base := sigmaSq * lambdaMin / lambdaMax
	if base >= 1 {
		return 1
	}
	return math.Pow(base, float64(2*t+1))
}

// EmbedOffTree computes the Joule heat of every off-tree edge by r
// independent t-step generalized power iterations (eq. 6 summed per
// eq. 12): heat(p,q) = Σ_j w_pq (h_t,j(p) − h_t,j(q))². The returned slice
// is parallel to offIDs. The second return is heat_max. It is one
// EdgeScorer built on one goroutine, scored and dropped — what a filter
// round does with its own worker count.
func EmbedOffTree(g *graph.Graph, solver Solver, offIDs []int, t, r int, seed uint64) ([]float64, float64) {
	return NewEdgeScorer(g, solver, t, r, seed, 1).Score(g, offIDs)
}

// Sparsify runs the full similarity-aware pipeline of §3: backbone
// extraction, iterative embed → filter → densify rounds, and extreme
// eigenvalue tracking. On success Result.SigmaSqAchieved ≤ opt.SigmaSq.
// If the round cap is exhausted first, the best sparsifier found is
// returned together with ErrNoTarget.
func Sparsify(g *graph.Graph, opt Options) (*Result, error) {
	return SparsifyCtx(context.Background(), g, opt)
}

// SparsifyCtx is Sparsify with cooperative cancellation: the context is
// checked before every densification round, and ctx.Err() is returned as
// soon as it fires, so a canceled job stops computing instead of running
// its remaining rounds to completion.
func SparsifyCtx(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	if err := g.RequireConnected(); err != nil {
		return nil, err
	}
	if err := opt.defaults(g.N()); err != nil {
		return nil, err
	}

	backbone, treeIDs, offIDs, err := lsst.Extract(g, lsst.MaxWeight, opt.Seed)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Tree:         backbone,
		TreeEdgeIDs:  treeIDs,
		TotalStretch: backbone.TotalStretch(g),
	}

	p := backbone.Graph()
	var solver Solver = backbone // exact O(n) while P is the bare tree
	var chol *cholesky.LapSolver // the factor of p once a round has added edges

	remaining := append([]int(nil), offIDs...)
	rng := vecmath.NewRNG(opt.Seed ^ 0x5eed)

	for round := 1; round <= maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		budget := math.MaxInt
		if opt.MaxEdges > 0 {
			budget = opt.MaxEdges - p.M()
		}
		stats, chosen, err := filterRound(ctx, g, p, solver, remaining, &opt, rng, budget, !opt.DisableSimilarity)
		if err != nil {
			return nil, fmt.Errorf("core: λmax estimation failed in round %d: %w", round, err)
		}
		stats.Round = round
		res.LambdaMax, res.LambdaMin, res.SigmaSqAchieved = stats.LambdaMax, stats.LambdaMin, stats.SigmaSqEst
		if len(chosen) == 0 {
			stats.EdgesTotal = p.M()
			res.Rounds = append(res.Rounds, stats)
			res.Sparsifier, res.Solver = p, chol
			if res.SigmaSqAchieved <= opt.SigmaSq || len(remaining) == 0 {
				return res, nil
			}
			return res, ErrNoTarget // edge budget spent
		}

		var added []int
		added, remaining = take(remaining, chosen)
		res.OffTreeAddedIDs = append(res.OffTreeAddedIDs, added...)
		newEdges := make([]graph.Edge, len(added))
		for i, id := range added {
			newEdges[i] = g.Edge(id)
		}
		p, err = p.AddEdges(newEdges)
		if err != nil {
			return nil, fmt.Errorf("core: densification failed: %w", err)
		}
		stats.Added = len(newEdges)
		stats.EdgesTotal = p.M()
		res.Rounds = append(res.Rounds, stats)

		chol, err = factor(ctx, p)
		if err != nil {
			return nil, fmt.Errorf("core: inner solver setup: %w", err)
		}
		solver = chol
	}

	// Final estimate after the last round's additions.
	if lmax, lmin, err := estimateExtremes(g, p, solver, powerIters, rng.Uint64()); err == nil {
		res.LambdaMax, res.LambdaMin = lmax, lmin
		res.SigmaSqAchieved = lmax / lmin
	}
	res.Sparsifier, res.Solver = p, chol
	if res.SigmaSqAchieved <= opt.SigmaSq {
		return res, nil
	}
	return res, ErrNoTarget
}

// HeatSpectrum supports the Fig. 2 reproduction: it extracts the
// max-weight backbone tree, runs a single embedding round (t steps, r
// vectors) on it, and returns all off-tree heats normalized by the max,
// sorted descending, together with the θσ thresholds for the requested
// σ² values. A non-positive t defaults to 1 (Fig. 2's setting, where
// Sparsify defaults to 2); a non-positive r defaults as in Sparsify, to
// ⌈log₂(n+1)⌉.
func HeatSpectrum(g *graph.Graph, t, r int, sigmaSqs []float64, seed uint64) (norm []float64, thresholds []float64, err error) {
	if err := g.RequireConnected(); err != nil {
		return nil, nil, err
	}
	if t <= 0 {
		t = 1
	}
	if r <= 0 {
		_, r, _, _ = Options{}.EffectiveEmbed(g.N())
	}
	backbone, _, offIDs, err := lsst.Extract(g, lsst.MaxWeight, seed)
	if err != nil {
		return nil, nil, err
	}
	heats, maxHeat := EmbedOffTree(g, backbone, offIDs, t, r, seed)
	if maxHeat == 0 {
		return nil, nil, errors.New("core: graph has no off-tree heat (already a tree?)")
	}
	norm = make([]float64, len(heats))
	for i, h := range heats {
		norm[i] = h / maxHeat
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(norm)))

	p := backbone.Graph()
	lmax, err := EstimateLambdaMax(g, p, backbone, 10, seed)
	if err != nil {
		return nil, nil, err
	}
	lmin := EstimateLambdaMin(g, p)
	thresholds = make([]float64, len(sigmaSqs))
	for i, s2 := range sigmaSqs {
		thresholds[i] = Threshold(s2, lmin, lmax, t)
	}
	return norm, thresholds, nil
}

// VerifySimilarity is the product's certificate: it estimates κ(L_G, L_P)
// with a k-step generalized Lanczos run in the coordinates of solver, a
// factorization of exactly P, and reports (λmax, λmin, κ). Every verified
// batch plan and every streamed batch reach it through engine.Certify;
// the benchmark harness and the test oracles call it directly.
func VerifySimilarity(g, p *graph.Graph, solver *cholesky.LapSolver, k int, seed uint64) (lmax, lmin, cond float64, err error) {
	vals, err := eig.GeneralizedLanczos(g, p, solver, k, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	if len(vals) == 0 {
		return 0, 0, 0, errors.New("core: Lanczos returned no Ritz values")
	}
	lmin, lmax = vals[0], vals[len(vals)-1]
	if lmin < 1 {
		lmin = 1 // interlacing guarantees λmin ≥ 1 for subgraphs
	}
	return lmax, lmin, lmax / lmin, nil
}
