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
//   - repairs the spanning-tree backbone when a tree edge is deleted
//     (heaviest crossing edge, lsst.FindReplacement),
//   - refreshes the embedding with one warm-started power step instead
//     of a fresh r·t-solve embedding — run lazily, the moment an
//     admission decision next consults the heats, so delete/reweight-only
//     batches (the switching-sequence regime) skip the probe solves
//     entirely,
//   - refactors the sparsifier only when its edge set actually changed,
//     reusing the fill-reducing elimination order of the last full build
//     (which keeps the elimination tree the rank-1 updates walk stable),
//   - re-verifies κ(L_G, L_P) after every batch and runs localized
//     re-filter rounds (re-score candidates, admit the hottest) when the
//     certificate drifts toward the target, and
//   - tracks a cumulative churn estimate that forces a full rebuild
//     (internal/engine, under whichever plan the options name) once the
//     drift budget is spent and the stored embedding can no longer be
//     trusted to re-rank candidates.
//
// The invariant after every successful Apply: the sparsifier is a
// connected subgraph of the current graph whose independently verified
// condition number is at most the configured σ² (up to estimator noise;
// see refilterMargin).
package dynamic

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/engine"
	"graphspar/internal/graph"
	"graphspar/internal/lsst"
	"graphspar/internal/obs"
	"graphspar/internal/params"
	"graphspar/internal/tree"
	"graphspar/internal/vecmath"
)

// The maintainer's configuration is the batch pipeline's engine.Options:
// Sparsify carries the similarity target and embedding knobs (SigmaSq is
// required), Mode/Shards/Workers/Partition pick the plan of every full
// (re)build — the zero value rebuilds single-shot, ModeSharded through the
// shard-parallel plan. One field doubles as a maintenance setting with a
// default of its own: VerifySteps is the generalized-Lanczos depth of the
// per-batch certificate check — the extremes settle fast on sparsifier
// spectra, so it can be shallower than an offline audit (default
// min(12, n); refilterMargin absorbs the residual underestimate). Verify
// is ignored: the maintainer certifies every build on its own factor.
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
func maintainerDefaults(opt engine.Options, n int) (engine.Options, error) {
	if err := params.Sigma2(opt.Sparsify.SigmaSq); err != nil {
		return opt, err
	}
	if opt.VerifySteps <= 0 {
		opt.VerifySteps = 12
	}
	opt.VerifySteps = max(2, min(opt.VerifySteps, n))
	if opt.Sparsify.Seed == 0 {
		opt.Sparsify.Seed = 1
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
type Maintainer struct {
	opt engine.Options

	g        *graph.Graph
	p        *graph.Graph       // materialized sparsifier, kept in sync with pW
	pW       map[[2]int]float64 // sparsifier edges; weights mirror g
	treeKey  map[[2]int]bool    // backbone subset of pW
	backbone *tree.Tree
	solver   *cholesky.LapSolver

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

	lmax, lmin, cond float64
	condAtBuild      float64
	drift            float64 // cumulative churn since the last full build
	mAtBuild         int     // edge count at the last full build
	targetMet        bool

	rng   *vecmath.RNG
	stats Stats
}

// edgeDelta is one sparsifier weight change staged for the factor: dw is
// the signed difference against the pre-commit weight (full weight for an
// insertion, negated weight for a deletion).
type edgeDelta struct {
	u, v int
	dw   float64
}

// New sparsifies g from scratch and returns a Maintainer tracking it.
func New(ctx context.Context, g *graph.Graph, opt engine.Options) (*Maintainer, error) {
	if err := g.RequireConnected(); err != nil {
		return nil, err
	}
	opt, err := maintainerDefaults(opt, g.N())
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
// the heaviest available graph edges, invoking add for each one taken.
// Returns false if g itself cannot connect the components. The
// multi-removal backbone repair sweep calls it.
func reconnectHeaviest(g *graph.Graph, uf *lsst.UnionFind, add func(graph.Edge)) bool {
	if uf.Count() == 1 {
		return true
	}
	ids := make([]int, g.M())
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return g.Edge(ids[a]).W > g.Edge(ids[b]).W })
	for _, id := range ids {
		e := g.Edge(id)
		if uf.Union(e.U, e.V) {
			add(e)
			if uf.Count() == 1 {
				return true
			}
		}
	}
	return false
}

// recordThresholds captures the similarity threshold and heat normalizer
// of the current (just-settled) state for future insert admission.
func (m *Maintainer) recordThresholds(ctx context.Context) {
	m.freshenEmbedding(ctx) // the heat normalizer reads the embedding
	t, _, _, _ := m.opt.Sparsify.EffectiveEmbed(m.g.N())
	m.theta = core.Threshold(m.opt.Sparsify.SigmaSq, m.lmin, m.lmax, t)
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
func (m *Maintainer) Cond() float64 { return m.cond }

// TargetMet reports whether the latest certificate meets σ².
func (m *Maintainer) TargetMet() bool { return m.targetMet }

// Stats snapshots the work counters.
func (m *Maintainer) Stats() Stats {
	s := m.stats
	s.Cond = m.cond
	s.Drift = m.drift
	s.DriftBudget = m.driftBudget()
	s.TargetMet = m.targetMet
	return s
}

// driftBudget is the churn the embedding may absorb before a rebuild:
// driftFraction of the edge count at the last full build.
func (m *Maintainer) driftBudget() float64 {
	return driftFraction * float64(m.mAtBuild)
}

// ResidentBytes estimates the heap the maintainer keeps resident between
// applies: both graphs' edge lists and adjacency indexes, the sparsifier's
// edge-map mirror and tree bookkeeping, the Cholesky factor, and the
// retained probe embedding. It is an accounting estimate sized from
// n/m/probe counts — session managers budget memory with it — not a
// precise measurement.
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
	b += int64(len(m.pW)) * 64 // map entry: key pair + weight + bucket overhead
	b += int64(len(m.treeKey)) * 48
	if m.solver != nil {
		b += int64(m.solver.FactorNNZ())*16 + int64(m.g.N())*24
	}
	if m.scorer != nil {
		b += int64(len(m.scorer.Probes)) * int64(m.g.N()) * 8
	}
	if m.backbone != nil {
		b += int64(m.g.N()) * 40 // parent/weight/order arrays of the rooted tree
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
// best-effort ErrNoTarget semantics). An internal failure after the
// commit point (factorization, Lanczos) can leave the maintainer with a
// mutated graph but stale solver state; call Rebuild to recover.
func (m *Maintainer) Apply(ctx context.Context, batch []Update) error {
	if len(batch) == 0 {
		return nil
	}
	g2, err := ApplyToGraph(m.g, batch)
	if err != nil {
		return err
	}

	// Stage sparsifier edits as deltas; nothing on m mutates until the
	// whole batch (including tree repair) is known to succeed.
	pSet := make(map[[2]int]float64, len(batch))
	pDel := make(map[[2]int]bool, len(batch))
	treeAdd := make(map[[2]int]bool, 2)
	churn := 0.0
	treeChanged := false
	var deletedTree [][2]int
	inserts := make([][2]int, 0, 4)
	for _, u := range batch {
		k := u.key()
		switch u.Op {
		case OpInsert:
			churn++
			inserts = append(inserts, k)
		case OpDelete:
			churn++
			if m.treeKey[k] {
				deletedTree = append(deletedTree, k)
				treeChanged = true
			}
			if _, ok := m.pW[k]; ok {
				pDel[k] = true
			}
		case OpReweight:
			// Reweights churn by their relative weight change, so trimming
			// a weight by 1% does not age the embedding like a topology
			// change would.
			if e, ok := lookupEdge(m.g, k); ok {
				den := math.Max(e.W, u.W)
				if den > 0 {
					churn += math.Min(1, math.Abs(u.W-e.W)/den)
				}
			}
			if _, ok := m.pW[k]; ok {
				pSet[k] = u.W
				if m.treeKey[k] {
					treeChanged = true // parent weights feed the O(n) solver
				}
			}
		}
	}

	// Repair the backbone for every deleted tree edge: reconnect the two
	// forest components with the heaviest crossing edge of the new graph.
	if len(deletedTree) > 0 {
		if err := m.repairTree(g2, deletedTree, pDel, pSet, treeAdd); err != nil {
			return err
		}
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
	for _, k := range inserts {
		w := 0.0
		if e, ok := lookupEdge(g2, k); ok {
			w = e.W
		}
		heat := m.scorer.Heat(graph.Edge{U: k[0], V: k[1], W: w})
		if m.maxHeat <= 0 || heat/m.maxHeat >= m.theta {
			pSet[k] = w
			admitted++
		}
	}

	// Express the staged sparsifier edits as signed weight deltas against
	// the pre-commit state: these are exactly the rank-1 perturbations the
	// factor needs. Sorted so the update sequence — and with it the
	// floating-point state of the factor — is identical run to run.
	deltas := make([]edgeDelta, 0, len(pDel)+len(pSet))
	for k := range pDel {
		deltas = append(deltas, edgeDelta{k[0], k[1], -m.pW[k]})
	}
	for k, w := range pSet {
		if old := m.pW[k]; w != old {
			deltas = append(deltas, edgeDelta{k[0], k[1], w - old})
		}
	}
	sort.Slice(deltas, func(a, b int) bool {
		if deltas[a].u != deltas[b].u {
			return deltas[a].u < deltas[b].u
		}
		return deltas[a].v < deltas[b].v
	})

	// Commit. From here only internal failures (factorization, Lanczos)
	// can error, and those leave the maintainer in a state Rebuild fixes.
	m.g = g2
	for k := range pDel {
		delete(m.pW, k)
	}
	for k, w := range pSet {
		m.pW[k] = w
	}
	for _, k := range deletedTree {
		delete(m.treeKey, k)
	}
	for k := range treeAdd {
		m.treeKey[k] = true
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

	if treeChanged {
		if err := m.rebuildBackbone(); err != nil {
			return err
		}
	}
	if len(pDel) > 0 || len(pSet) > 0 {
		// Re-materialize; the factor absorbs the deltas as rank-1
		// update/downdates when it can, refactors otherwise.
		if err := m.materialize(deltas); err != nil {
			return err
		}
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
	if m.cond > m.opt.Sparsify.SigmaSq {
		return m.forceRebuild(ctx)
	}
	return nil
}

// refilter runs localized re-filter rounds: re-score the current off-tree
// candidates with the retained embedding, admit the hottest ones past the
// similarity threshold, re-verify, repeat while κ exceeds the safety
// margin (up to core.RefilterRounds). In batched mode the refactorization
// and Lanczos re-verification are deferred until all admission rounds
// have run, so one certificate check covers the whole pass (the
// large-batch regime: verification dominates the per-round cost, and θσ
// would not move between rounds anyway without fresh λ estimates).
func (m *Maintainer) refilter(ctx context.Context, batched bool) error {
	defer obs.StartSpan(ctx, "refilter").End()
	safety := refilterMargin * m.opt.Sparsify.SigmaSq
	if m.cond <= safety {
		return nil
	}
	if batched {
		m.stats.BatchedSettles++
	}
	// Re-filter scoring consults the embedding: fold deferred batches in.
	m.freshenEmbedding(ctx)
	dirty := false // admissions not yet folded into the solver + certificate
	var pending []edgeDelta
	t, _, _, batchFraction := m.opt.Sparsify.EffectiveEmbed(m.g.N())
	for round := 0; round < core.RefilterRounds && m.cond > safety; round++ {
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
		theta := core.Threshold(m.opt.Sparsify.SigmaSq, m.lmin, m.lmax, t)
		chosen, _ := core.SelectEdges(m.g, candIDs, heats, maxHeat, theta, batchFraction, math.MaxInt, true)
		for _, pos := range chosen {
			e := m.g.Edge(candIDs[pos])
			m.pW[[2]int{e.U, e.V}] = e.W
			pending = append(pending, edgeDelta{e.U, e.V, e.W})
		}
		// Remember the pass's thresholds for future insert admission.
		m.theta, m.maxHeat = theta, maxHeat
		m.stats.Refilters++
		if batched && round < core.RefilterRounds-1 {
			// Defer the refactorization and the Lanczos check: one
			// certificate verification covers the whole admission pass.
			dirty = true
			continue
		}
		if err := m.materialize(pending); err != nil {
			return err
		}
		pending = pending[:0]
		if err := m.verifyCertificate(ctx); err != nil {
			return err
		}
		dirty = false
	}
	if dirty {
		// Batched pass ended on a deferred round (candidates ran out, or
		// the final round was skipped by the loop bound): fold the staged
		// admissions in and verify once.
		if err := m.materialize(pending); err != nil {
			return err
		}
		if err := m.verifyCertificate(ctx); err != nil {
			return err
		}
	}
	return nil
}

// offTreeCandidates lists the edge ids of m.g that are not yet in the
// sparsifier.
func (m *Maintainer) offTreeCandidates() []int {
	out := make([]int, 0, m.g.M()-len(m.pW))
	for id, e := range m.g.Edges() {
		if _, ok := m.pW[[2]int{e.U, e.V}]; !ok {
			out = append(out, id)
		}
	}
	return out
}

// rebuildBackbone reconstructs the rooted tree object from the current
// treeKey set, keeping the previous root.
func (m *Maintainer) rebuildBackbone() error {
	edges := make([]graph.Edge, 0, len(m.treeKey))
	//graphspar:nondeterministic-ok tree.Build canonicalizes through graph.New, which sorts and merges the edge list before any traversal
	for k := range m.treeKey {
		w, ok := m.pW[k]
		if !ok {
			return fmt.Errorf("dynamic: tree edge (%d,%d) missing from sparsifier", k[0], k[1])
		}
		edges = append(edges, graph.Edge{U: k[0], V: k[1], W: w})
	}
	root := 0
	if m.backbone != nil {
		root = m.backbone.Root()
	}
	t, err := tree.Build(m.g.N(), edges, root)
	if err != nil {
		return fmt.Errorf("dynamic: backbone rebuild: %w", err)
	}
	m.backbone = t
	return nil
}

// adoptBackboneFromSparsifier derives a fresh max-weight backbone from the
// current sparsifier (used by sharded rebuilds, where no tree comes with
// the sparsifier).
func (m *Maintainer) adoptBackboneFromSparsifier() error {
	backbone, treeIDs, _, err := lsst.Extract(m.p, lsst.MaxWeight, m.opt.Sparsify.Seed)
	if err != nil {
		return err
	}
	m.backbone = backbone
	m.treeKey = make(map[[2]int]bool, len(treeIDs))
	for _, id := range treeIDs {
		e := m.p.Edge(id)
		m.treeKey[[2]int{e.U, e.V}] = true
	}
	return nil
}

// materialize rebuilds m.p from the edge-weight map and brings the solver
// in sync: deltas describing the change are folded into the factor as
// rank-1 update/downdates when possible, with a full refactorization as
// the fallback. Passing nil deltas (unknown change) always refactors.
func (m *Maintainer) materialize(deltas []edgeDelta) error {
	p, err := edgesFromMap(m.g.N(), m.pW)
	if err != nil {
		return err
	}
	m.p = p
	return m.refreshFactor(deltas)
}

// refreshFactor folds the staged sparsifier deltas into the existing
// factor via O(path fill) rank-1 update/downdates. It falls back to a full
// refactorization when the update budget is exhausted, when an inserted
// edge's endpoints fall outside the factor pattern (fill would be needed),
// or when a downdate turns numerically singular — in every fallback the
// factor is rebuilt from m.p, so a partially applied delta list is
// harmless.
func (m *Maintainer) refreshFactor(deltas []edgeDelta) error {
	if m.solver == nil || deltas == nil {
		return m.refactor()
	}
	if len(deltas) == 0 {
		return nil // weights identical; the factor already matches
	}
	if m.updatesSinceFactor+len(deltas) > factorUpdateBudget {
		return m.refactor()
	}
	for _, d := range deltas {
		if err := m.solver.ApplyEdge(d.u, d.v, d.dw); err != nil {
			return m.refactor()
		}
		m.updatesSinceFactor++
		if d.dw > 0 {
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
	ws := m.opt.Sparsify.Workspace.Chol()
	if m.perm != nil && len(m.perm) == m.p.N()-1 && m.nnzAtOrder > 0 {
		if nnz, err := cholesky.SymbolicFactorNNZ(m.p, m.perm); err == nil && nnz <= fillLimit*m.nnzAtOrder {
			solver, err := cholesky.NewLapSolverOrderedWS(m.p, m.perm, ws)
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
		solver, err = cholesky.NewLapSolverWS(m.p, ws)
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
		m.scorer = core.NewEdgeScorer(m.g, m.solver, t, r, core.DeriveSeed(m.opt.Sparsify.Seed, int(m.rng.Uint64()%1024)))
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
	m.scorer.Step(m.g, m.solver)
	m.embedStale = false
	m.stats.EmbedRefreshes++
}

// verifyCertificate re-estimates κ(L_G, L_P) by generalized Lanczos with
// the current exact factorization.
func (m *Maintainer) verifyCertificate(ctx context.Context) error {
	defer obs.StartSpan(ctx, "verify").End()
	m.stats.Verifies++
	lmax, lmin, cond, err := core.VerifySimilarity(m.g, m.p, m.solver, m.opt.VerifySteps, m.rng.Uint64())
	if err != nil {
		return fmt.Errorf("dynamic: similarity verification: %w", err)
	}
	m.lmax, m.lmin, m.cond = lmax, lmin, cond
	m.targetMet = cond <= m.opt.Sparsify.SigmaSq
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
	m.pW = make(map[[2]int]float64, m.p.M())
	for _, e := range m.p.Edges() {
		m.pW[[2]int{e.U, e.V}] = e.W
	}
	// Only the single-shot plan hands back its backbone; the others get a
	// fresh one derived from the sparsifier.
	if res.Tree == nil {
		if err := m.adoptBackboneFromSparsifier(); err != nil {
			return err
		}
	} else {
		m.backbone = res.Tree
		m.treeKey = make(map[[2]int]bool, len(res.TreeEdgeIDs))
		for _, id := range res.TreeEdgeIDs {
			e := m.g.Edge(id)
			m.treeKey[[2]int{e.U, e.V}] = true
		}
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
	m.condAtBuild = m.cond
	m.drift = 0
	m.mAtBuild = m.g.M()
	return nil
}

// repairTree stages the reconnection of the backbone forest after
// tree-edge deletions: the surviving forest is m.treeKey minus the
// removed edges, repairs prefer the heaviest crossing edge per removed
// edge (lsst.FindReplacement), and a heaviest-first sweep covers the case
// of several simultaneous removals fragmenting the forest beyond pairwise
// repair. Repair edges are staged into both the tree set and the
// sparsifier deltas.
func (m *Maintainer) repairTree(g *graph.Graph, removed [][2]int, pDel map[[2]int]bool, pSet map[[2]int]float64, treeAdd map[[2]int]bool) error {
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
	stage := func(e graph.Edge) {
		k := [2]int{e.U, e.V}
		treeAdd[k] = true
		pSet[k] = e.W
		delete(pDel, k)
		pairs = append(pairs, k)
	}
	if len(removed) == 1 {
		id, err := lsst.FindReplacement(g, pairs, removed[0][0], removed[0][1], nil)
		if err == nil && id >= 0 {
			stage(g.Edge(id))
			return nil
		}
		if err != nil && !errors.Is(err, lsst.ErrNoReplacement) {
			return err
		}
		// ErrNoReplacement cannot happen for a connected g with a single
		// removal, but fall through to the sweep as a belt-and-braces path.
	}
	uf := lsst.NewUnionFind(g.N())
	for _, k := range pairs {
		uf.Union(k[0], k[1])
	}
	if !reconnectHeaviest(g, uf, stage) {
		return fmt.Errorf("dynamic: backbone repair failed: %w", graph.ErrDisconnected)
	}
	return nil
}

// lookupEdge finds the edge with the given normalized key in g.
func lookupEdge(g *graph.Graph, k [2]int) (graph.Edge, bool) {
	var out graph.Edge
	found := false
	g.Neighbors(k[0], func(v int, w float64, id int) bool {
		if v == k[1] {
			out = g.Edge(id)
			found = true
			return false
		}
		return true
	})
	return out, found
}
