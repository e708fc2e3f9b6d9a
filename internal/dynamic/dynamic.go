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
//   - repairs the sparsifier's spanning tree when a batch deletes some of
//     its edges (one heaviest-first sweep over the crossing edges),
//   - refreshes the embedding with one warm-started power step instead
//     of a fresh r·t-solve embedding — run lazily, the moment an
//     admission decision next consults the heats, so delete/reweight-only
//     batches (the switching-sequence regime) skip the probe solves
//     entirely,
//   - folds each sparsifier edge change into the standing Cholesky factor
//     as a rank-1 update along one elimination-tree path, growing the
//     factor's pattern when an edge lies outside it, and refactoring
//     (under a fresh elimination order for the sparsifier it then holds)
//     only when the update budget or the fill cap runs out or a downdate
//     turns singular,
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
// and the sparsifier's spanning tree. All three are immutable (u,v)-sorted
// edge lists, and a batch edits them with the same merge walk
// (graph.Edit), which also yields the factor's rank-1 deltas in order;
// membership is a binary search, the off-tree candidates and the surviving
// tree two-pointer walks. No edge map, no rooted tree object and no
// per-batch sort of a whole list stands beside them to be kept in step.
//
// The invariant after every successful Apply: the sparsifier is a
// connected subgraph of the current graph, carrying the graph's current
// weights, whose independently verified condition number is at most the
// configured σ² (up to estimator noise; see refilterMargin); the tree is
// n−1 sparsifier edges spanning it.
package dynamic

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/engine"
	"graphspar/internal/graph"
	"graphspar/internal/lsst"
	"graphspar/internal/obs"
	"graphspar/internal/vecmath"
)

// The maintainer's configuration is the batch pipeline's engine.Options:
// Sparsify carries the similarity target (required) and the seed, Mode
// picks the plan of every full (re)build — the zero value rebuilds
// single-shot, ModeSharded through the shard-parallel plan — and Workers
// its parallelism. Builds run engine.Select, the batch plan without its
// stop rule: the maintainer certifies every build on its own factor.
// Everything about maintenance is fixed — the localized re-filter rounds per Apply
// by core.RefilterRounds, the rest here:
const (
	// certifySteps is the generalized-Lanczos depth of the per-batch
	// certificate check. The extremes settle fast on sparsifier spectra,
	// so it can be shallower than the batch pipeline's (engine.Certify
	// caps it at n; refilterMargin absorbs the residual underestimate).
	certifySteps = 12
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
	// whole matrix — growing the factor's pattern first when the edge lies
	// outside it; the budget bounds accumulated rounding before the next
	// exact factorization re-anchors the numerics and sheds the entries of
	// deleted edges.
	factorUpdateBudget = 256
	// fillLimit caps the factor's nnz(L) at this multiple of its nnz(L) at
	// the last factorization. Rank-1 updates grow the pattern as edges
	// arrive and keep the entries of edges that leave, so refreshFactor
	// refactors, under a fresh order, once a batch leaves the grown factor
	// past the cap.
	fillLimit = 4
	// rngSalt separates the maintainer's random stream — the probe and
	// certificate seeds — from the configured seed's other uses.
	rngSalt = 0xdf1a7
)

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

// Maintainer holds a graph together with its live sparsifier and σ²
// certificate and applies batched edge updates incrementally, without
// re-running the full pipeline per batch: probe-vector re-scoring against
// the last filter pass, backbone repair, localized re-filter rounds and
// churn-budgeted full rebuilds. It is the facade's Stream. Not safe for
// concurrent use.
//
// The state model: the maintainer owns exactly one copy of what it
// maintains — the graph g, the sparsifier p (a subgraph of g carrying g's
// current weights) and tree, p's spanning-tree backbone; all three are
// immutable sorted edge lists, replaced, never written through. Everything
// else is derived from those three and refreshed after them: the Cholesky
// factor of p, the probe embedding, the certificate.
type Maintainer struct {
	opt engine.Options

	g *graph.Graph
	p *graph.Graph // the sparsifier: p ⊆ g, weights equal g's
	// tree is p's spanning tree: n−1 edges of p. Only its pairs are read;
	// a tree edge keeps the weight it joined with.
	tree   *graph.Graph
	solver *cholesky.LapSolver

	// nnzAtFactor is the factor's nnz(L) at its last factorization, which
	// fillLimit caps rank-1 growth against.
	nnzAtFactor int

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
	if err := opt.Defaults(); err != nil {
		return nil, err
	}
	m := &Maintainer{opt: opt, g: g, rng: vecmath.NewRNG(opt.Sparsify.Seed ^ rngSalt)}
	if err := m.rebuild(ctx); err != nil {
		return nil, err
	}
	return m, nil
}

// reconnectHeaviest grows the union-find to a single component by adding
// the heaviest available graph edges — lsst.Heaviest's Kruskal sweep over
// (weight desc, edge id asc) — and returns the edges taken, or false if g
// itself cannot connect the components. Only edges that cross components
// when the sweep starts are swept: an edge inside one component can never
// union, so dropping those first takes the same edges in the same order.
// repairTree calls it.
func reconnectHeaviest(g *graph.Graph, uf *lsst.UnionFind) (taken []graph.Edge, ok bool) {
	var ids []int
	for id, e := range g.Edges() {
		if uf.Find(e.U) != uf.Find(e.V) {
			ids = append(ids, id)
		}
	}
	joined, _ := lsst.Heaviest(g, ids, uf)
	for _, id := range joined {
		taken = append(taken, g.Edge(id))
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
// applies: the graph, the sparsifier and its spanning tree (edge lists),
// the Cholesky factor at its int32 layout, and the
// retained probe embedding — one term per thing the maintainer holds, and
// it holds the sparsifier once. It is an accounting estimate sized from
// lengths — session managers budget memory with it — not a precise
// measurement.
func (m *Maintainer) ResidentBytes() int64 {
	b := m.g.Bytes() + m.p.Bytes() + m.tree.Bytes()
	if m.solver != nil {
		b += m.solver.Bytes()
	}
	if m.scorer != nil {
		b += int64(len(m.scorer.Probes)) * int64(m.g.N()) * 8
	}
	return b
}

// Apply validates and applies one batch of updates atomically: a
// validation or connectivity error (ErrWouldDisconnect for bridge
// deletes) rejects the whole batch with the maintainer unchanged. On
// success the sparsifier has been maintained incrementally (or rebuilt,
// if the drift budget was spent or re-filtering could not restore the
// certificate) and the certificate has been re-verified; TargetMet
// reports false in the rare case where even a full rebuild cannot
// certify σ² (mirroring core.Sparsify's best-effort ErrNoTarget
// semantics).
//
// Everything that can reject the batch runs before the commit point, on
// staged values: the edited graph, the tree repair, and the edited
// sparsifier — the same sorted walk (graph.Edit) over p and the tree that
// ApplyToGraph ran over g. The commit swaps g, p and the tree together, so
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
	var pEdits, inserts, deletedTree []graph.Edge
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
			if m.tree.HasEdge(e.U, e.V) {
				deletedTree = append(deletedTree, e) // W == 0: Edit's deletion
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

	// Repair the spanning tree when the batch deletes tree edges: reconnect
	// the forest's components with the heaviest crossing edges of the new
	// graph. A repair edge may already be staged (a reweighted sparsifier
	// edge) or be staged again below (an admitted insert), always at g2's
	// weight; Edit lets the last edit of a pair win.
	tree2 := m.tree
	if len(deletedTree) > 0 {
		var repairs []graph.Edge
		if tree2, repairs, err = m.repairTree(g2, deletedTree); err != nil {
			return err
		}
		pEdits = append(pEdits, repairs...)
	}
	if got, want := tree2.M(), m.g.N()-1; got != want {
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
	m.g, m.p, m.tree = g2, p2, tree2
	m.drift += churn
	m.stats.Applies++
	m.stats.Updates += len(batch)
	m.stats.InsertsAdmitted += admitted
	m.stats.TreeRepairs += len(deletedTree)

	// Spent drift budget means the stored embedding is stale beyond
	// trust: rebuild from scratch rather than refreshing solver, scorer
	// and certificate only for the rebuild to redo all three.
	if m.drift > m.driftBudget() {
		return m.Rebuild(ctx)
	}
	// The factor absorbs the deltas as rank-1 update/downdates when it
	// can, refactors otherwise.
	if err := m.refreshFactor(ctx, deltas); err != nil {
		return err
	}
	if err := m.refreshScorerAndCertificate(ctx, false); err != nil {
		return err
	}
	return m.settle(ctx, len(batch) >= batchVerifyThreshold)
}

// Rebuild discards all incremental state and re-sparsifies from scratch.
func (m *Maintainer) Rebuild(ctx context.Context) error {
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
		return m.Rebuild(ctx)
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
		chosen, _ := core.SelectEdges(m.g, candIDs, heats, maxHeat, theta, batchFraction, true)
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
	if err := m.refreshFactor(ctx, admitted); err != nil {
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
// update/downdates. An edge outside the factor's pattern — an admitted
// insert, a tree-repair edge — grows the pattern first, once for the whole
// list (LapSolver.Grow), so the pattern is the symbolic factor, under the
// order of its last factorization, of every edge the factor has absorbed
// since; a deleted edge keeps its entries until the next one.
// Weight increases go in before decreases: a deleted tree edge's repair is
// in the factor before the deletion is downdated, so no downdate passes
// through a disconnected P.
//
// It refactors instead when there is no factor or the deltas would pass
// factorUpdateBudget, and after the fact when a downdate turns
// numerically singular or the grown factor passes fillLimit× its nnz(L)
// at that factorization; in every such case the factor is rebuilt from
// m.p, so a partially applied delta list is harmless.
func (m *Maintainer) refreshFactor(ctx context.Context, deltas []graph.Edge) error {
	if m.solver == nil {
		return m.refactor(ctx, nil)
	}
	if len(deltas) == 0 {
		return nil // weights identical; the factor already matches
	}
	if m.updatesSinceFactor+len(deltas) > factorUpdateBudget {
		return m.refactor(ctx, nil)
	}
	if err := m.solver.Grow(deltas); err != nil {
		return m.refactor(ctx, nil)
	}
	for _, increase := range []bool{true, false} {
		for _, d := range deltas {
			if (d.W > 0) != increase {
				continue
			}
			if err := m.solver.ApplyEdge(d.U, d.V, d.W); err != nil {
				return m.refactor(ctx, nil)
			}
			m.updatesSinceFactor++
			if increase {
				m.stats.FactorUpdates++
			} else {
				m.stats.FactorDowndates++
			}
		}
	}
	if m.solver.FactorNNZ() > fillLimit*m.nnzAtFactor {
		return m.refactor(ctx, nil)
	}
	return nil
}

// refactor numerically factors the current sparsifier exactly once: for a
// build, and where refreshFactor gives up on rank-1 updates (no factor,
// the update budget, a singular downdate, the fill cap). Every
// factorization is cholesky.NewLapSolver's, ordered afresh by approximate
// minimum degree, so no order outlives the sparsifier it was computed for.
//
// built is nil, or the factor a build's plan ended on: cholesky.NewLapSolver
// on m.p, the factorization this call would make, so it is adopted instead
// of made again. Every factorization runs under a "factor" span.
func (m *Maintainer) refactor(ctx context.Context, built *cholesky.LapSolver) error {
	m.updatesSinceFactor = 0
	m.stats.FactorRebuilds++
	solver := built
	if solver == nil {
		defer obs.StartSpan(ctx, obs.PhaseFactor).End()
		var err error
		if solver, err = cholesky.NewLapSolver(m.p); err != nil {
			return fmt.Errorf("dynamic: sparsifier factorization: %w", err)
		}
	}
	m.solver, m.nnzAtFactor = solver, solver.FactorNNZ()
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
	c, err := engine.Certify(ctx, m.g, m.p, m.solver, certifySteps, m.rng.Uint64())
	if err != nil {
		return err
	}
	m.cert = c
	return nil
}

// rebuild re-sparsifies the current graph from scratch through the batch
// pipeline, resets the drift accounting, refactors and rebuilds the probe
// embedding.
func (m *Maintainer) rebuild(ctx context.Context) error {
	// The certificate below runs on the maintainer's own factor, adopted
	// from the plan where refactor would build the same one; the batch
	// stop rule would factor the same sparsifier a second time for a
	// result nobody reads.
	res, built, err := engine.Select(ctx, m.g, m.opt)
	if err != nil {
		return err
	}
	m.p = res.Sparsifier
	// Only the single-shot plan hands back its spanning tree (as edge ids
	// of g); the others get a fresh max-weight one derived from the
	// sparsifier.
	treeOf, treeIDs := m.g, res.TreeEdgeIDs
	if res.Sharded || res.Multilevel {
		treeOf = m.p
		if treeIDs, err = lsst.MaxWeightSpanningTree(m.p); err != nil {
			return err
		}
	}
	if m.tree, err = treeOf.SubgraphEdges(treeIDs); err != nil {
		return err
	}
	if err := m.refactor(ctx, built); err != nil {
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

// repairTree reconnects the spanning tree after a batch deletes the tree
// edges removed (W == 0, each once) and returns the edited tree and the
// repair edges, which the caller also stages into the sparsifier. One
// two-pointer walk unions the surviving tree edges, reconnectHeaviest joins
// the fragments with the heaviest crossing edges of g (the post-batch
// graph), and one graph.Edit swaps removed for repairs. A single removal
// is repaired by the heaviest crossing edge, ties to the lowest id.
func (m *Maintainer) repairTree(g *graph.Graph, removed []graph.Edge) (*graph.Graph, []graph.Edge, error) {
	slices.SortFunc(removed, func(a, b graph.Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	uf := lsst.NewUnionFind(g.N())
	rest := removed
	for _, e := range m.tree.Edges() {
		if len(rest) > 0 && rest[0].U == e.U && rest[0].V == e.V {
			rest = rest[1:]
		} else {
			uf.Union(e.U, e.V)
		}
	}
	repairs, ok := reconnectHeaviest(g, uf)
	if !ok {
		return nil, nil, fmt.Errorf("dynamic: tree repair failed: %w", graph.ErrDisconnected)
	}
	tree, _, err := graph.Edit(m.tree, append(removed, repairs...))
	return tree, repairs, err
}
