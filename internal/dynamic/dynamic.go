// Package dynamic maintains a similarity-aware spectral sparsifier under
// edge insertions, deletions and reweights without re-running the full
// pipeline per mutation. The edge-filtering view of sparsification makes
// this natural: a small batch of updates perturbs only a few effective
// resistances, so the existing Joule-heat embedding stays approximately
// valid and candidates can be re-scored against the thresholds of the
// last full filter pass (spectral perturbation re-ranking in the spirit
// of GRASS, Feng arXiv:1911.04382). The Maintainer
//
//   - admits inserted edges by scoring them with the retained probe
//     vectors (core.EdgeScorer) against the last similarity threshold,
//   - repairs the sparsifier's spanning tree when one of its edges is
//     deleted (heaviest crossing edge, lsst.FindReplacement),
//   - refreshes the embedding with one warm-started power step instead
//     of a fresh r·t-solve embedding — run lazily, the moment an
//     admission decision next consults the heats, so delete/reweight-only
//     batches (the switching-sequence regime) skip the probe solves
//     entirely,
//   - folds each sparsifier edge change into the standing Cholesky factor
//     as a rank-1 update along one elimination-tree path, refactoring
//     (under the elimination order of the last full build, which keeps
//     that tree stable) only when the update budget or the factor's
//     pattern runs out,
//   - re-verifies κ(L_G, L_P) after every batch (engine.Certify, the batch
//     pipeline's certificate routine) and runs localized re-filter rounds
//     (re-score candidates, admit the hottest) when the certificate drifts
//     toward the target, and
//   - tracks a cumulative churn estimate that forces a full rebuild
//     (internal/engine, under whichever plan the options name) once the
//     drift budget is spent and the stored embedding can no longer be
//     trusted to re-rank candidates.
//
// The maintainer holds what it maintains once: the graph, the sparsifier
// and the key set of the sparsifier's spanning tree. Graph and sparsifier
// are immutable (u,v)-sorted edge lists, and a batch edits both with the
// same merge walk (graph.Edit), which also yields the factor's rank-1
// deltas in order; membership is a binary search, the off-tree candidates
// a two-pointer walk. No edge map, no rooted tree object and no per-batch
// sort stands beside them to be kept in step.
//
// The invariant after every successful Apply: the sparsifier is a
// connected subgraph of the current graph, carrying the graph's current
// weights, whose independently verified condition number is at most the
// configured σ² (up to estimator noise; see refilterMargin); the tree keys
// are n−1 sparsifier edges spanning it.
package dynamic

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/engine"
	"graphspar/internal/graph"
	"graphspar/internal/lsst"
	"graphspar/internal/obs"
	"graphspar/internal/params"
	"graphspar/internal/vecmath"
)

// The maintainer's configuration is the batch pipeline's engine.Options:
// Sparsify carries the similarity target and embedding knobs (SigmaSq is
// required), Mode/Shards/Workers pick the plan of every full
// (re)build — the zero value rebuilds single-shot, ModeSharded through the
// shard-parallel plan. One field doubles as a maintenance setting with a
// default of its own: VerifySteps is the generalized-Lanczos depth of the
// per-batch certificate check — the extremes settle fast on sparsifier
// spectra, so it can be shallower than an offline audit (default 12,
// capped at n by engine.Certify; refilterMargin absorbs the residual
// underestimate). Verify is ignored: the maintainer certifies every build
// on its own factor.
// Everything else about maintenance is fixed — the localized re-filter
// rounds per Apply by core.RefilterRounds, the rest here:
const (
	// refilterMargin is the safety margin: re-filtering starts once
	// κ > refilterMargin·σ², keeping headroom for estimator noise so the
	// true condition number stays under σ².
	refilterMargin = 0.9
	// driftFraction bounds embedding staleness: a full rebuild is forced
	// once the cumulative churn — inserted/deleted edges count 1 each,
	// reweights their relative weight change — exceeds this fraction of
	// the edge count at the last full build. Spectral emergencies are
	// caught separately (the certificate is re-verified every batch and
	// re-filtering falls back to a rebuild), so this only has to decide
	// when the retained probe vectors have seen too much change to keep
	// re-scoring against.
	driftFraction = 0.25
	// batchVerifyThreshold batches certificate re-verification across the
	// re-filter rounds of large update batches: when one Apply carries at
	// least this many updates, the settle pass admits candidates for all
	// its re-filter rounds back-to-back and runs a single refactorization
	// plus Lanczos verify at the end, instead of one per round. The
	// similarity threshold θσ is frozen for the pass (λ estimates only
	// move on verification), so the admission order is identical — large
	// batches trade a slightly denser sparsifier (no early stop between
	// rounds) for roughly half the certificate-restoration cost.
	batchVerifyThreshold = 64
	// factorUpdateBudget caps how many rank-1 Cholesky update/downdates
	// may be folded into the sparsifier factor between full numeric
	// refactorizations. Each sparsifier edge change is a rank-1
	// perturbation of the reduced Laplacian, applied along one
	// elimination-tree path in O(path fill) instead of refactoring the
	// whole matrix; the budget bounds accumulated rounding before the next
	// exact factorization re-anchors the numerics.
	factorUpdateBudget = 256
	// fillLimit triggers a fresh elimination ordering once the reused
	// order's factor grows past this multiple of the originally ordered
	// factor.
	fillLimit = 4
)

// maintainerDefaults validates opt and fills the maintainer's own
// defaults on its copy.
func maintainerDefaults(opt engine.Options) (engine.Options, error) {
	if err := params.Sigma2(opt.Sparsify.SigmaSq); err != nil {
		return opt, err
	}
	if opt.VerifySteps <= 0 {
		opt.VerifySteps = 12
	}
	opt.VerifySteps = max(2, opt.VerifySteps) // Certify caps it at n
	if opt.Sparsify.Seed == 0 {
		opt.Sparsify.Seed = 1
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0) // the scorer's, and every rebuild's
	}
	return opt, nil
}

// Stats counts the maintainer's work since construction.
type Stats struct {
	Applies         int     `json:"applies"`
	Updates         int     `json:"updates"`
	InsertsAdmitted int     `json:"inserts_admitted"`
	TreeRepairs     int     `json:"tree_repairs"`
	Refilters       int     `json:"refilter_rounds"`
	Rebuilds        int     `json:"rebuilds"`
	Verifies        int     `json:"verifies"`
	BatchedSettles  int     `json:"batched_settles"`
	EmbedRefreshes  int     `json:"embed_refreshes"`
	FactorUpdates   int     `json:"factor_updates"`
	FactorDowndates int     `json:"factor_downdates"`
	FactorRebuilds  int     `json:"factor_rebuilds"`
	Cond            float64 `json:"condition_number"`
	Drift           float64 `json:"drift"`
	DriftBudget     float64 `json:"drift_budget"`
	TargetMet       bool    `json:"target_met"`
}

// Maintainer holds a graph together with its live sparsifier and applies
// batched edge updates incrementally. Not safe for concurrent use.
//
// The state model: the maintainer owns exactly one copy of what it
// maintains — the graph g, the sparsifier p (a subgraph of g carrying g's
// current weights; both are immutable sorted edge lists, replaced, never
// written through) and treeKey, the key set of p's spanning-tree backbone.
// Everything else is derived from those three and refreshed after them:
// the Cholesky factor of p, the probe embedding, the certificate.
type Maintainer struct {
	opt engine.Options

	g       *graph.Graph
	p       *graph.Graph    // the sparsifier: p ⊆ g, weights equal g's
	treeKey map[[2]int]bool // p's spanning tree: n−1 keys
	solver  *cholesky.LapSolver

	// perm/nnzAtOrder cache the fill-reducing elimination order computed
	// at the last full ordering; incremental refactorizations reuse it
	// until fill creep (factor nnz past fillLimit× the original) forces a
	// fresh minimum-degree pass.
	perm       []int
	nnzAtOrder int

	// updatesSinceFactor counts rank-1 updates folded into the current
	// factor; refreshFactor refactors once it would pass factorUpdateBudget.
	updatesSinceFactor int

	scorer *core.EdgeScorer
	// embedStale records committed batches not yet folded into the probe
	// vectors; freshenEmbedding runs the deferred warm power step right
	// before the embedding is next consulted.
	embedStale bool
	maxHeat    float64 // heat normalizer of the last full filter pass
	theta      float64 // similarity threshold of the last full filter pass

	cert     engine.Certificate // the latest check of p against g
	drift    float64            // cumulative churn since the last full build
	mAtBuild int                // edge count at the last full build

	rng   *vecmath.RNG
	stats Stats
}

// New sparsifies g from scratch and returns a Maintainer tracking it.
func New(ctx context.Context, g *graph.Graph, opt engine.Options) (*Maintainer, error) {
	if err := g.RequireConnected(); err != nil {
		return nil, err
	}
	opt, err := maintainerDefaults(opt)
	if err != nil {
		return nil, err
	}
	m := &Maintainer{opt: opt, g: g, rng: vecmath.NewRNG(opt.Sparsify.Seed ^ 0xdf1a7)}
	if err := m.rebuild(ctx); err != nil {
		return nil, err
	}
	return m, nil
}

// reconnectHeaviest grows the union-find to a single component by adding
// the heaviest available graph edges — ranked by the total order (weight
// desc, edge id asc), so equal weights never leave the choice to the sort
// algorithm — and returns the edges taken, or false if g itself cannot
// connect the components. The multi-removal tree-repair sweep calls it.
func reconnectHeaviest(g *graph.Graph, uf *lsst.UnionFind) (taken []graph.Edge, ok bool) {
	ids := make([]int, g.M())
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		if wa, wb := g.Edge(ids[a]).W, g.Edge(ids[b]).W; wa != wb {
			return wa > wb
		}
		return ids[a] < ids[b]
	})
	for _, id := range ids {
		if uf.Count() == 1 {
			break
		}
		if e := g.Edge(id); uf.Union(e.U, e.V) {
			taken = append(taken, e)
		}
	}
	return taken, uf.Count() == 1
}

// recordThresholds captures the similarity threshold and heat normalizer
// of the current (just-settled) state for future insert admission.
func (m *Maintainer) recordThresholds(ctx context.Context) {
	m.freshenEmbedding(ctx) // the heat normalizer reads the embedding
	t, _, _, _ := m.opt.Sparsify.EffectiveEmbed(m.g.N())
	m.theta = core.Threshold(m.opt.Sparsify.SigmaSq, m.cert.LambdaMin, m.cert.LambdaMax, t)
	if cands := m.offTreeCandidates(); len(cands) > 0 {
		_, m.maxHeat = m.scorer.Score(m.g, cands)
	} else {
		m.maxHeat = 0
	}
}

// Graph returns the current graph.
func (m *Maintainer) Graph() *graph.Graph { return m.g }

// Sparsifier returns the current sparsifier. Callers must not mutate it;
// it stays live until the next Apply replaces it.
func (m *Maintainer) Sparsifier() *graph.Graph { return m.p }

// Cond returns the latest independently verified condition number
// κ(L_G, L_P).
func (m *Maintainer) Cond() float64 { return m.cert.Cond }

// TargetMet reports whether the latest certificate meets σ².
func (m *Maintainer) TargetMet() bool { return m.cert.Cond <= m.opt.Sparsify.SigmaSq }

// Stats snapshots the work counters.
func (m *Maintainer) Stats() Stats {
	s := m.stats
	s.Cond = m.cert.Cond
	s.Drift = m.drift
	s.DriftBudget = m.driftBudget()
	s.TargetMet = m.TargetMet()
	return s
}

// driftBudget is the churn the embedding may absorb before a rebuild:
// driftFraction of the edge count at the last full build.
func (m *Maintainer) driftBudget() float64 {
	return driftFraction * float64(m.mAtBuild)
}

// ResidentBytes estimates the heap the maintainer keeps resident between
// applies: both graphs' edge lists and adjacency indexes, the tree key
// set, the Cholesky factor, and the retained probe embedding — one term per
// thing the maintainer holds, and it holds the sparsifier once. It is an
// accounting estimate sized from n/m/probe counts — session managers
// budget memory with it — not a precise measurement.
func (m *Maintainer) ResidentBytes() int64 {
	graphBytes := func(g *graph.Graph) int64 {
		if g == nil {
			return 0
		}
		// Edge list (24 B/edge) plus the CSR adjacency (two int arrays per
		// directed arc, one pointer array).
		return int64(g.M())*(24+32) + int64(g.N()+1)*8
	}
	b := graphBytes(m.g) + graphBytes(m.p)
	b += int64(len(m.treeKey)) * 48
	if m.solver != nil {
		b += int64(m.solver.FactorNNZ())*16 + int64(m.g.N())*24
	}
	if m.scorer != nil {
		b += int64(len(m.scorer.Probes)) * int64(m.g.N()) * 8
	}
	return b
}

// Apply validates and applies one batch of updates atomically: a
// validation or connectivity error rejects the whole batch with the
// maintainer unchanged. On success the sparsifier has been maintained
// incrementally (or rebuilt, if the drift budget was spent or
// re-filtering could not restore the certificate) and the certificate
// has been re-verified; TargetMet reports false in the rare case where
// even a full rebuild cannot certify σ² (mirroring core.Sparsify's
// best-effort ErrNoTarget semantics).
//
// Everything that can reject the batch runs before the commit point, on
// staged values: the edited graph, the tree repair, and the edited
// sparsifier — the same sorted walk (graph.Edit) over p that ApplyToGraph
// ran over g. The commit swaps g, p and the tree keys together, so
// they never disagree. After it only an internal failure (factorization,
// Lanczos) or a cancelled ctx can error, and what that can leave stale is
// derived state — a factor some deltas behind p, the embedding, the
// certificate; Rebuild recovers from all of it.
func (m *Maintainer) Apply(ctx context.Context, batch []Update) error {
	if len(batch) == 0 {
		return nil
	}
	g2, err := ApplyToGraph(m.g, batch)
	if err != nil {
		return err
	}

	// Stage the sparsifier's share of the batch as edits of p (weight 0
	// deletes); nothing on m mutates until the whole batch, tree repair
	// included, is known to succeed.
	var pEdits, inserts []graph.Edge
	var deletedTree [][2]int
	churn := 0.0
	for _, u := range batch {
		k := u.key()
		e := graph.Edge{U: k[0], V: k[1]}
		switch u.Op {
		case OpInsert:
			churn++
			e.W = u.W
			inserts = append(inserts, e)
			continue
		case OpDelete:
			churn++
			if m.treeKey[k] {
				deletedTree = append(deletedTree, k)
			}
		case OpReweight:
			// Reweights churn by their relative weight change, so trimming
			// a weight by 1% does not age the embedding like a topology
			// change would.
			if id, ok := graph.FindEdge(m.g, e.U, e.V); ok {
				old := m.g.Edge(id).W
				if den := math.Max(old, u.W); den > 0 {
					churn += math.Min(1, math.Abs(u.W-old)/den)
				}
			}
			e.W = u.W
		}
		if m.p.HasEdge(e.U, e.V) {
			pEdits = append(pEdits, e)
		}
	}

	// Repair the spanning tree for every deleted tree edge: reconnect the two
	// forest components with the heaviest crossing edge of the new graph.
	// A repair edge may already be staged (a reweighted sparsifier edge) or
	// be staged again below (an admitted insert), always at g2's weight;
	// Edit lets the last edit of a pair win.
	var repairs []graph.Edge
	if len(deletedTree) > 0 {
		if repairs, err = m.repairTree(g2, deletedTree); err != nil {
			return err
		}
		pEdits = append(pEdits, repairs...)
	}
	if got, want := len(m.treeKey)-len(deletedTree)+len(repairs), m.g.N()-1; got != want {
		return fmt.Errorf("dynamic: tree repair would leave %d tree edges, a spanning tree has %d", got, want)
	}

	// Score inserts against the thresholds of the last full filter pass;
	// hot edges join the sparsifier immediately, cold ones stay out until
	// a re-filter or rebuild reconsiders them. Fold any deferred batches
	// into the embedding first — at this point the graph and solver are
	// still the post-previous-commit state, so the lazy step lands exactly
	// where the eager per-batch step used to.
	if len(inserts) > 0 {
		m.freshenEmbedding(ctx)
	}
	admitted := 0
	for _, e := range inserts {
		if m.maxHeat <= 0 || m.scorer.Heat(e)/m.maxHeat >= m.theta {
			pEdits = append(pEdits, e)
			admitted++
		}
	}

	// The next sparsifier, and with it — the walk sees the old and new
	// weight of every edited pair side by side — the signed weight deltas
	// against the pre-commit state: exactly the rank-1 perturbations the
	// factor needs, already in (u,v) order, so the update sequence and the
	// floating-point state of the factor are identical run to run.
	p2, deltas, err := graph.Edit(m.p, pEdits)
	if err != nil {
		return err
	}

	// Commit.
	m.g, m.p = g2, p2
	for _, k := range deletedTree {
		delete(m.treeKey, k)
	}
	for _, e := range repairs {
		m.treeKey[[2]int{e.U, e.V}] = true
	}
	m.drift += churn
	m.stats.Applies++
	m.stats.Updates += len(batch)
	m.stats.InsertsAdmitted += admitted
	m.stats.TreeRepairs += len(deletedTree)

	// Spent drift budget means the stored embedding is stale beyond
	// trust: rebuild from scratch rather than refreshing solver, scorer
	// and certificate only for the rebuild to redo all three.
	if m.drift > m.driftBudget() {
		return m.forceRebuild(ctx)
	}
	// The factor absorbs the deltas as rank-1 update/downdates when it
	// can, refactors otherwise.
	if err := m.refreshFactor(deltas); err != nil {
		return err
	}
	if err := m.refreshScorerAndCertificate(ctx, false); err != nil {
		return err
	}
	return m.settle(ctx, len(batch) >= batchVerifyThreshold)
}

// Rebuild discards all incremental state and re-sparsifies from scratch.
func (m *Maintainer) Rebuild(ctx context.Context) error {
	return m.forceRebuild(ctx)
}

func (m *Maintainer) forceRebuild(ctx context.Context) error {
	if err := m.rebuild(ctx); err != nil {
		return err
	}
	m.stats.Rebuilds++
	return nil
}

// settle re-filters while the verified certificate exceeds the safety
// margin, and falls back to a full rebuild when the rounds are exhausted
// with the target still unmet. batched selects the one-verify-per-pass
// re-filter mode for large update batches.
func (m *Maintainer) settle(ctx context.Context, batched bool) error {
	defer obs.StartSpan(ctx, "settle").End()
	if err := m.refilter(ctx, batched); err != nil {
		return err
	}
	if !m.TargetMet() {
		return m.forceRebuild(ctx)
	}
	return nil
}

// refilter runs localized re-filter rounds: re-score the current off-tree
// candidates with the retained embedding, admit the hottest ones past the
// similarity threshold, re-verify, repeat while κ exceeds the safety
// margin (up to core.RefilterRounds). Every round merges its admissions
// into p (graph.AddEdges), so the next round's candidates are read off g
// and p themselves. In batched mode only the factor update and the Lanczos
// re-verification are deferred until all admission rounds have run, so one
// certificate check covers the whole pass (the large-batch regime:
// verification dominates the per-round cost, and θσ would not move between
// rounds anyway without fresh λ estimates).
func (m *Maintainer) refilter(ctx context.Context, batched bool) error {
	defer obs.StartSpan(ctx, "refilter").End()
	safety := refilterMargin * m.opt.Sparsify.SigmaSq
	if m.cert.Cond <= safety {
		return nil
	}
	if batched {
		m.stats.BatchedSettles++
	}
	// Re-filter scoring consults the embedding: fold deferred batches in.
	m.freshenEmbedding(ctx)
	var pending []graph.Edge // admissions not yet folded into the solver + certificate
	t, _, _, batchFraction := m.opt.Sparsify.EffectiveEmbed(m.g.N())
	for round := 0; round < core.RefilterRounds && m.cert.Cond > safety; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		candIDs := m.offTreeCandidates()
		if len(candIDs) == 0 {
			break
		}
		heats, maxHeat := m.scorer.Score(m.g, candIDs)
		if maxHeat <= 0 {
			break
		}
		theta := core.Threshold(m.opt.Sparsify.SigmaSq, m.cert.LambdaMin, m.cert.LambdaMax, t)
		chosen, _ := core.SelectEdges(m.g, candIDs, heats, maxHeat, theta, batchFraction, math.MaxInt, true)
		for _, pos := range chosen {
			pending = append(pending, m.g.Edge(candIDs[pos]))
		}
		p, err := m.p.AddEdges(pending[len(pending)-len(chosen):])
		if err != nil {
			return err
		}
		m.p = p
		// Remember the pass's thresholds for future insert admission.
		m.theta, m.maxHeat = theta, maxHeat
		m.stats.Refilters++
		if batched && round < core.RefilterRounds-1 {
			// Defer the factor update and the Lanczos check: one
			// certificate verification covers the whole admission pass.
			continue
		}
		if err := m.foldAndVerify(ctx, pending); err != nil {
			return err
		}
		pending = pending[:0]
	}
	if len(pending) > 0 {
		// Batched pass ended on a deferred round (candidates ran out):
		// fold the staged admissions in and verify once.
		return m.foldAndVerify(ctx, pending)
	}
	return nil
}

// foldAndVerify brings the factor up to p by the given admissions (full
// weights, in admission order) and re-verifies the certificate.
func (m *Maintainer) foldAndVerify(ctx context.Context, admitted []graph.Edge) error {
	if err := m.refreshFactor(admitted); err != nil {
		return err
	}
	return m.verifyCertificate(ctx)
}

// offTreeCandidates lists the edge ids of m.g that are not yet in the
// sparsifier: one two-pointer walk, since p's edge list is a subsequence of
// g's (p ⊆ g, both (u,v)-sorted).
func (m *Maintainer) offTreeCandidates() []int {
	in := m.p.Edges()
	out := make([]int, 0, m.g.M()-len(in))
	for id, e := range m.g.Edges() {
		if len(in) > 0 && in[0].U == e.U && in[0].V == e.V {
			in = in[1:]
		} else {
			out = append(out, id)
		}
	}
	return out
}

// refreshFactor brings the factor up to m.p, which differs from what the
// factor holds by deltas (signed weight changes, graph.Edit's or a
// re-filter's admissions): they are folded in as O(path fill) rank-1
// update/downdates. It falls back to a full refactorization when there is
// no factor, the update budget is exhausted, an inserted edge's endpoints
// fall outside the factor pattern (fill would be needed), or a downdate
// turns numerically singular — in every fallback the factor is rebuilt
// from m.p, so a partially applied delta list is harmless.
func (m *Maintainer) refreshFactor(deltas []graph.Edge) error {
	if m.solver == nil {
		return m.refactor()
	}
	if len(deltas) == 0 {
		return nil // weights identical; the factor already matches
	}
	if m.updatesSinceFactor+len(deltas) > factorUpdateBudget {
		return m.refactor()
	}
	for _, d := range deltas {
		if err := m.solver.ApplyEdge(d.U, d.V, d.W); err != nil {
			return m.refactor()
		}
		m.updatesSinceFactor++
		if d.W > 0 {
			m.stats.FactorUpdates++
		} else {
			m.stats.FactorDowndates++
		}
	}
	return nil
}

// refactor numerically factors the current sparsifier exactly once: the
// cached elimination order is first checked symbolically (etree column
// counts only), so a stale order whose fill crept past fillLimit costs one
// numeric factorization under a fresh order — not the old
// factor-then-discard-then-refactor double pass. Fresh orders are picked
// by sparsifier shape: near-tree sparsifiers get centroid nested
// dissection, whose O(log n)-height elimination trees keep ApplyEdge's
// update walks short; denser ones get minimum degree — with many off-tree
// edges the ND fill (and with it both factorization and update-path cost)
// explodes, while min-degree stays near-optimal and its deeper etree
// paths remain cheap because the columns stay short.
func (m *Maintainer) refactor() error {
	m.updatesSinceFactor = 0
	m.stats.FactorRebuilds++
	if m.perm != nil && len(m.perm) == m.p.N()-1 && m.nnzAtOrder > 0 {
		if nnz, err := cholesky.SymbolicFactorNNZ(m.p, m.perm); err == nil && nnz <= fillLimit*m.nnzAtOrder {
			solver, err := cholesky.NewLapSolverOrdered(m.p, m.perm)
			if err == nil {
				m.solver = solver
				return nil
			}
		}
	}
	var (
		solver *cholesky.LapSolver
		err    error
	)
	if offTree := m.p.M() - (m.p.N() - 1); offTree*32 <= m.p.N() {
		solver, err = cholesky.NewLapSolverND(m.p)
	} else {
		solver, err = cholesky.NewLapSolver(m.p)
	}
	if err != nil {
		return fmt.Errorf("dynamic: sparsifier factorization: %w", err)
	}
	m.solver = solver
	m.perm = solver.Ordering()
	m.nnzAtOrder = solver.FactorNNZ()
	return nil
}

// refreshScorerAndCertificate rebuilds the probe embedding (fresh) or
// marks it stale for a deferred warm-start step, then re-verifies the
// certificate. The solver must already match m.p. The certificate check
// itself never consults the embedding — it is exact Lanczos against the
// current factorization — so deferring the power step is invisible to
// the per-batch invariant; the step runs lazily in freshenEmbedding the
// moment an admission decision actually needs heats. Update streams that
// only delete/reweight (the switching-sequence regime) therefore skip
// the r probe solves per batch entirely.
func (m *Maintainer) refreshScorerAndCertificate(ctx context.Context, fresh bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t, r, _, _ := m.opt.Sparsify.EffectiveEmbed(m.g.N())
	if fresh || m.scorer == nil {
		m.scorer = core.NewEdgeScorer(m.g, m.solver, t, r, core.DeriveSeed(m.opt.Sparsify.Seed, int(m.rng.Uint64()%1024)), m.opt.Workers)
		m.embedStale = false
	} else {
		m.embedStale = true
	}
	return m.verifyCertificate(ctx)
}

// freshenEmbedding folds every batch committed since the last refresh
// into the retained probe vectors with one warm-started power step
// against the current graph and solver. Callers invoke it right before
// the embedding is consulted (insert admission, re-filter scoring); the
// drift budget separately bounds how much deferred churn the embedding
// may absorb before a rebuild.
func (m *Maintainer) freshenEmbedding(ctx context.Context) {
	if !m.embedStale || m.scorer == nil {
		return
	}
	defer obs.StartSpan(ctx, "embed").End()
	m.scorer.Step(m.g, m.solver, m.opt.Workers)
	m.embedStale = false
	m.stats.EmbedRefreshes++
}

// verifyCertificate re-estimates κ(L_G, L_P) with the batch pipeline's
// certificate routine on the standing factor.
func (m *Maintainer) verifyCertificate(ctx context.Context) error {
	m.stats.Verifies++
	c, err := engine.Certify(ctx, m.g, m.p, m.solver, m.opt.VerifySteps, m.rng.Uint64())
	if err != nil {
		return err
	}
	m.cert = c
	return nil
}

// rebuild re-sparsifies the current graph from scratch through the batch
// pipeline, resets the drift accounting, recomputes the elimination order
// and rebuilds the probe embedding.
func (m *Maintainer) rebuild(ctx context.Context) error {
	bopt := m.opt
	// The certificate below runs on the maintainer's own factor; a
	// pipeline-side check would factor the same sparsifier a second time
	// for a result nobody reads.
	bopt.Verify = false
	res, err := engine.Run(ctx, m.g, bopt)
	if err != nil {
		return err
	}
	m.p = res.Sparsifier
	// Only the single-shot plan hands back its spanning tree (as edge ids
	// of g); the others get a fresh max-weight one derived from the
	// sparsifier.
	treeOf, treeIDs := m.g, res.TreeEdgeIDs
	if res.Mode != params.ModeSingleShot {
		treeOf = m.p
		if _, treeIDs, _, err = lsst.Extract(m.p, lsst.MaxWeight, m.opt.Sparsify.Seed); err != nil {
			return err
		}
	}
	m.treeKey = make(map[[2]int]bool, len(treeIDs))
	for _, id := range treeIDs {
		e := treeOf.Edge(id)
		m.treeKey[[2]int{e.U, e.V}] = true
	}
	m.perm = nil // force a fresh elimination order for the new pattern
	if err := m.refactor(); err != nil {
		return err
	}
	if err := m.refreshScorerAndCertificate(ctx, true); err != nil {
		return err
	}
	// Record the thresholds of this full pass for future insert scoring.
	m.recordThresholds(ctx)
	// The pipeline's own estimates can land the *verified* κ slightly
	// above target (deeper Lanczos, different seed, or the sharded plan's
	// stitched certificate); close any residual gap with re-filter rounds
	// before trusting this build as the drift baseline.
	if err := m.refilter(ctx, false); err != nil {
		return err
	}
	m.drift = 0
	m.mAtBuild = m.g.M()
	return nil
}

// repairTree plans the reconnection of the spanning forest after
// tree-edge deletions and returns the repair edges (edges of g, which is
// the post-batch graph): the surviving forest is m.treeKey minus the
// removed edges, repairs prefer the heaviest crossing edge per removed
// edge (lsst.FindReplacement), and a heaviest-first sweep covers the case
// of several simultaneous removals fragmenting the forest beyond pairwise
// repair. The caller stages them into both the tree set and the
// sparsifier edits.
func (m *Maintainer) repairTree(g *graph.Graph, removed [][2]int) ([]graph.Edge, error) {
	removedSet := make(map[[2]int]bool, len(removed))
	for _, k := range removed {
		removedSet[k] = true
	}
	pairs := make([][2]int, 0, len(m.treeKey))
	//graphspar:nondeterministic-ok pairs only seed union-find connectivity; FindReplacement then selects by weight over the deterministic g.Edges() order
	for k := range m.treeKey {
		if !removedSet[k] {
			pairs = append(pairs, k)
		}
	}
	if len(removed) == 1 {
		id, err := lsst.FindReplacement(g, pairs, removed[0][0], removed[0][1], nil)
		if err == nil && id >= 0 {
			return []graph.Edge{g.Edge(id)}, nil
		}
		if err != nil && !errors.Is(err, lsst.ErrNoReplacement) {
			return nil, err
		}
		// ErrNoReplacement cannot happen for a connected g with a single
		// removal, but fall through to the sweep as a belt-and-braces path.
	}
	uf := lsst.NewUnionFind(g.N())
	for _, k := range pairs {
		uf.Union(k[0], k[1])
	}
	repairs, ok := reconnectHeaviest(g, uf)
	if !ok {
		return nil, fmt.Errorf("dynamic: tree repair failed: %w", graph.ErrDisconnected)
	}
	return repairs, nil
}
