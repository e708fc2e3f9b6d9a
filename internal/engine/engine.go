// Package engine is the one batch pipeline of the repository: every
// execution plan produces a candidate backbone plus candidate edges,
// filters them by Joule heat until the σ² target is met, and hands its
// selection to the same stop rule (certify): an independent certificate,
// and calibrated re-filters while it misses σ².
//
//   - The single-shot plan runs the edge filter (core.SparsifyCtx) on the
//     input itself. It is the degenerate one-level hierarchy.
//   - The multilevel plan (John & Safro, arXiv 1601.05527) contracts the
//     input along heavy-edge aggregates (internal/multilevel), runs that
//     same filter on the coarsest graph only, and interpolates the
//     selection back level by level, re-filtering and re-certifying each
//     finer level. It never cuts the graph, so cut-heavy topologies
//     collapse into aggregates instead of degrading into global passes
//     over huge cut sets.
//   - The sharded plan cuts the input into Shards parts, filters each
//     induced shard concurrently over a bounded worker pool, and stitches
//     the shard sparsifiers back together: the few cut edges needed for
//     connectivity join the backbone outright, the rest face a global
//     re-filter pass so the σ² guarantee is re-established end to end.
//     Sharding pays twice — the superlinear per-round costs drop to shard
//     size, and shards run on separate cores — but on small graphs its
//     fixed costs dominate (see the README for guidance).
//
// Which plan suits a graph is the caller's policy (the facade's auto
// mode); Run executes the plan it is handed and certifies every result,
// so its TargetMet is always the certificate's verdict. Select is the
// same plan without the final stop rule, for the dynamic maintainer,
// which certifies its builds on its own factor.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/graph"
	"graphspar/internal/obs"
	"graphspar/internal/params"
)

const (
	// cutFilterFraction gates the sharded plan's global embedding pass:
	// the re-filter runs only when the partition's non-backbone cut
	// exceeds this fraction of the stitched edge set. A smaller cut is
	// kept whole, skipping a full-size factorization that could not pay
	// for itself: with every cut edge present, L_G − L_P is the direct sum
	// of the per-shard remainders, so κ is at most the worst shard's κ
	// (λmin ≥ 1 by interlacing). The plan takes the max of the shards'
	// *estimates* of that κ, so its bound is only as exact as they are;
	// the certificate judges it like any other selection.
	cutFilterFraction = 0.05
	// maxCalibrations caps the stop rule's calibrated re-filter retries
	// when the verified κ misses the target the estimates cleared.
	maxCalibrations = 3
	// certifySteps is the stop rule's Lanczos depth; Certify caps it at
	// the vertex count of the graph it checks.
	certifySteps = 30
)

// Shards is the number of parts the sharded plan cuts its input into (a
// small graph can yield fewer, see Result.Parts). No caller ever needed
// another arity, so it is a constant of the plan, like the multilevel
// plan's coarsening policy.
const Shards = 4

// coarsestSize stops the multilevel plan's coarsening once a level has
// at most this many vertices — small enough that the full densification
// loop is cheap, large enough to keep the interpolation seed
// informative. An input at or below it makes the multilevel plan
// bit-identical to single-shot. It is a variable only so in-package tests
// can force real hierarchies on small graphs.
var coarsestSize = 512

// Options configures Run: the one options struct of every batch plan — and
// of a stream, whose maintainer (dynamic.New) takes it as is for its
// full rebuilds.
type Options struct {
	// Sparsify configures the edge filter every plan runs — on the input
	// (single-shot), on each shard, or on the coarsest level — and every
	// re-filter pass (at most core.RefilterRounds per stitch or level);
	// each embeds with core.Options.EffectiveEmbed of the graph it
	// filters. SigmaSq is required. Seed (default 1) drives every random
	// choice: partitioning, per-shard and per-level seeds, the global
	// passes and the certificate.
	Sparsify core.Options
	// Mode is the resolved execution plan. ModeAuto (the zero value) runs
	// single-shot: picking a plan per graph is the caller's policy.
	Mode params.Mode
	// Workers is the one worker count: how many shards sparsify
	// concurrently, and how many goroutines every embedding pass spreads
	// its probe-vector solves over (a shard's own passes use one — the
	// shard pool is the parallelism there). Default GOMAXPROCS. Workers
	// only affects wall-clock time, never the result.
	Workers int
}

// defaults validates opt, resolves ModeAuto and fills every unset knob.
// Seed defaults here for callers of Run and Select that leave it zero
// (graphspar.New resolves it already); Workers defaults only here.
func (o *Options) defaults() error {
	if err := params.Sigma2(o.Sparsify.SigmaSq); err != nil {
		return err
	}
	if o.Mode != params.ModeSharded && o.Mode != params.ModeMultilevel {
		o.Mode = params.ModeSingleShot
	}
	if o.Sparsify.Seed == 0 {
		o.Sparsify.Seed = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	o.Sparsify.EmbedWorkers = o.Workers
	return nil
}

// ShardStats reports one shard's sparsification (per connected component
// of a part; a part disconnected by the cut yields one entry per piece).
type ShardStats struct {
	Shard    int // part label this piece belongs to
	Vertices int
	Edges    int // induced edges handed to the shard sparsifier
	Kept     int // edges the shard sparsifier retained
	// SigmaSqAchieved/Rounds mirror the shard's core.Result; whether the
	// run met σ² is Result.TargetMet's alone.
	SigmaSqAchieved float64
	Rounds          []core.RoundStats
	Duration        time.Duration
	// EdgeIDs are the kept edges as ids into the input graph's edge list;
	// the stitched sparsifier contains every one of them by construction.
	EdgeIDs []int
}

// LevelStats reports one hierarchy level's work. Level 0 is the input
// graph; the highest level is the coarsest, where the full pipeline ran.
type LevelStats struct {
	Level    int
	Vertices int
	Edges    int
	// TreeEdges is the LSST backbone size at this level; Inherited
	// counts the non-backbone edges admitted by interpolation from the
	// coarse selection, Recovered the ones the level's own re-filter
	// passes added (at the coarsest level: the pipeline's off-tree
	// additions).
	TreeEdges int
	Inherited int
	Recovered int
	// Kept is the sparsifier size at this level.
	Kept int
	// SigmaSqEst is the level's own final κ estimate; VerifiedCond the
	// stop rule's last certificate of the level.
	SigmaSqEst   float64
	VerifiedCond float64
	Duration     time.Duration
}

// Timings breaks a Run down by phase. Single-shot runs fill only
// Sparsify, Verify and Wall; sharded runs additionally fill Partition,
// Shard, ShardCPU and Stitch; multilevel runs fill Coarsen and
// Interpolate (summed over levels, as is their Verify). Refilter sums
// every re-filter pass: per level, the sharded plan's global pass and the
// stop rule's calibrations. Partition is the
// k-way bisection plus its materialisation into shard tasks (the induced
// subgraphs and their component scans). ShardCPU sums the per-shard
// durations, so ShardCPU / Shard is the parallel speedup of the shard
// phase.
type Timings struct {
	Partition   time.Duration
	Shard       time.Duration
	ShardCPU    time.Duration
	Stitch      time.Duration
	Coarsen     time.Duration
	Interpolate time.Duration
	Refilter    time.Duration
	Sparsify    time.Duration // end-to-end compute excluding verification
	Verify      time.Duration
	Wall        time.Duration
}

// Result is the output of Run. Fields only one plan produces are
// documented as such and are zero for the others.
type Result struct {
	// Sparsifier is P: a connected subgraph spanning the input vertex set,
	// with original edge weights.
	Sparsifier *graph.Graph
	// Mode is the plan that ran (never ModeAuto).
	Mode params.Mode

	// LambdaMax/LambdaMin/SigmaSqEst are the plan's own final estimates
	// (in a sharded run with a small kept-whole cut, the worst shard's, see
	// cutFilterFraction). TargetMet is the run's one verdict on σ²:
	// VerifiedCond ≤ σ².
	LambdaMax, LambdaMin float64
	SigmaSqEst           float64
	TargetMet            bool

	// Single-shot fields: the backbone's total stretch, the tree/off-tree
	// edge ids into the input's edge list and the per-round densification
	// trace.
	TotalStretch    float64
	TreeEdgeIDs     []int
	OffTreeAddedIDs []int
	Rounds          []core.RoundStats

	// Sharded fields: the k-way partition's part count (Parts can fall
	// short of Shards on small graphs; it is 1 for the other plans),
	// per-shard stats and cut bookkeeping — CutEdges input edges crossed
	// the partition, StitchedCut of them were added for connectivity,
	// RecoveredCut more passed the global heat filter. When Run certifies
	// the input itself (every plan but a coarsened multilevel run, which
	// books them per level), RecoveredCut also counts the edges the stop
	// rule's calibrations admitted.
	Parts        int
	Shards       []ShardStats
	CutEdges     int
	StitchedCut  int
	RecoveredCut int

	// Multilevel fields: the hierarchy depth used (1 = no coarsening
	// happened) and per-level stats, indexed by level (0 = finest).
	Depth  int
	Levels []LevelStats

	// Verified* come from the stop rule's last independent
	// generalized-Lanczos check of the final sparsifier against the input
	// graph; VerifiedCond is the authoritative end-to-end κ.
	VerifiedLambdaMax float64
	VerifiedLambdaMin float64
	VerifiedCond      float64

	Timings Timings
}

// Run executes opt.Mode's plan on g and certifies its selection: Run is
// Select plus the stop rule (certify). A missed σ² target is reported in
// Result.TargetMet, never as an error (callers decide how to surface it).
// Cancellation of ctx stops the densification rounds and the re-filter
// passes at their next checkpoint and returns ctx.Err().
func Run(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	start := time.Now()
	res, s, err := plan(ctx, g, &opt)
	if err != nil {
		return nil, err
	}
	// A genuinely coarsened multilevel run certified every finer level,
	// ending with the input; every other plan's selection meets the stop
	// rule here.
	if res.Depth <= 1 {
		recovered, err := res.certify(ctx, "refilter", s, opt, opt.Sparsify.Seed)
		if err != nil {
			return nil, err
		}
		res.RecoveredCut += recovered
		res.Sparsifier, res.LambdaMax, res.LambdaMin, res.SigmaSqEst = s.p, s.lmax, s.lmin, s.est()
		if res.Levels != nil { // the one-level hierarchy: its only level is the input
			lv := &res.Levels[0]
			lv.Recovered += recovered
			lv.Kept, lv.SigmaSqEst, lv.VerifiedCond = s.p.M(), s.est(), res.VerifiedCond
		}
	}
	res.TargetMet = res.VerifiedCond > 0 && res.VerifiedCond <= opt.Sparsify.SigmaSq
	res.Timings.Wall = time.Since(start)
	res.Timings.Sparsify = res.Timings.Wall - res.Timings.Verify
	return res, nil
}

// Select executes opt.Mode's plan on g and stops before the final stop
// rule: its Result is Run's without the input's certificate, so
// TargetMet and Timings.Wall are zero, and so are Verified* unless a
// coarsened multilevel run certified its finer levels. It is for a
// caller that certifies the selection itself, on its own factor — the
// dynamic maintainer's builds.
func Select(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	res, _, err := plan(ctx, g, &opt)
	return res, err
}

// plan validates and defaults opt, then runs its plan on g and returns the
// Result with the input's selection adopted, and that selection.
func plan(ctx context.Context, g *graph.Graph, opt *Options) (*Result, *selection, error) {
	if err := g.RequireConnected(); err != nil {
		return nil, nil, err
	}
	if err := opt.defaults(); err != nil {
		return nil, nil, err
	}
	res := &Result{Mode: opt.Mode, Parts: 1}
	run := res.runLevels // single-shot and multilevel: one plan, two depths
	if opt.Mode == params.ModeSharded {
		run = res.runSharded
	}
	s, err := run(ctx, g, *opt)
	if err != nil {
		return nil, nil, err
	}
	res.Sparsifier, res.LambdaMax, res.LambdaMin, res.SigmaSqEst = s.p, s.lmax, s.lmin, s.est()
	return res, s, nil
}

// selection is what every plan hands to the stop rule: the graph it
// selected from, P, the kept edge ids into g's edge list, the factor of P
// the filter loop ended on (nil when it holds none, see Certify) and that
// loop's extreme-eigenvalue estimates.
type selection struct {
	g, p       *graph.Graph
	kept       []int
	solver     *cholesky.LapSolver
	lmax, lmin float64
}

// est is the selection's estimated κ, 0 when the estimates are unusable.
func (s *selection) est() float64 {
	if s.lmin > 0 {
		return s.lmax / s.lmin
	}
	return 0
}

// refilter runs core.RefilterFactored's bounded passes from s over cands
// toward ropt.SigmaSq under one span, adopts their result into s and
// returns how many candidates they admitted.
func (r *Result) refilter(ctx context.Context, span obs.PhaseName, s *selection, cands []int, ropt core.Options, seed uint64) (int, error) {
	rSpan := obs.StartSpan(ctx, span)
	p, kept, recovered, lmax, lmin, solver, err := core.RefilterFactored(ctx, s.g, s.kept, cands, ropt, core.RefilterRounds, ropt.EmbedWorkers, seed)
	r.Timings.Refilter += rSpan.End()
	if err != nil {
		return 0, err
	}
	*s = selection{g: s.g, p: p, kept: kept, solver: solver, lmax: lmax, lmin: lmin}
	return recovered, nil
}

// certify is the one stop rule of every plan. It certifies s against s.g
// and records the certificate on r. The filter loops' estimates can clear
// σ² while the certificate does not — they under-report κ by κ·λmin/λmax —
// so while the certificate misses σ², candidates remain and the estimates
// are usable, it re-filters toward the proportionally tighter target
// σ²·(λmax/λmin)/κ, which actually admits edges, and certifies again, at
// most maxCalibrations times. Attempt a re-filters with DeriveSeed(seed,
// 2a−1) and certifies with DeriveSeed(seed, 2a). It returns how many edges
// the re-filters admitted.
func (r *Result) certify(ctx context.Context, span obs.PhaseName, s *selection, opt Options, seed uint64) (recovered int, err error) {
	sigma := opt.Sparsify.SigmaSq
	for a := 0; ; a++ {
		if a > 0 {
			copt := opt.Sparsify
			copt.SigmaSq = sigma * s.est() / r.VerifiedCond
			if !(copt.SigmaSq > 1) {
				copt.SigmaSq = (1 + sigma) / 2
			}
			n, err := r.refilter(ctx, span, s, remaining(s.g.M(), s.kept), copt, core.DeriveSeed(seed, 2*a-1))
			if err != nil {
				return 0, err
			}
			recovered += n
		}
		c, err := Certify(ctx, s.g, s.p, s.solver, certifySteps, core.DeriveSeed(seed, 2*a))
		r.Timings.Verify += c.dur
		if err != nil {
			return 0, err
		}
		r.VerifiedLambdaMax, r.VerifiedLambdaMin, r.VerifiedCond = c.LambdaMax, c.LambdaMin, c.Cond
		if c.Cond <= sigma || len(s.kept) == s.g.M() || !(s.lmin > 0) || a == maxCalibrations {
			return recovered, nil
		}
	}
}

// Certificate is one independent similarity check: the extreme
// generalized eigenvalue estimates of (L_G, L_P) and their ratio κ, plus
// the duration of the "verify" span that measured them.
type Certificate struct {
	LambdaMax, LambdaMin, Cond float64
	dur                        time.Duration
}

// Certify runs the generalized-Lanczos similarity check of p against g.
// It is the product's only certificate code: the batch pipeline's stop
// rule (certify) and every settle pass of the dynamic maintainer go
// through it, under one "verify" span.
//
// solver must be a factorization of exactly p or nil; Certify only reads
// it. The filter loops hand over the factor they end on
// (core.Result.Solver, core.RefilterFactored), so the batch pipeline
// factors the final P once, and the maintainer hands in the standing
// factor it updates in place. Only when handed nil — P is still the bare
// tree, the last re-filter pass ran out of rounds while adding edges, or
// the plan never factored P at full size (the sharded plan's kept-whole
// cut) — does it factor p itself, under a "factor" span; that factor is the
// filter loop's bit for bit, so a batch certificate cannot depend on who
// built it.
//
// A one-vertex g has the trivial certificate κ = 1: its only vector is
// the constant one, on which both Laplacians vanish.
func Certify(ctx context.Context, g, p *graph.Graph, solver *cholesky.LapSolver, steps int, seed uint64) (c Certificate, err error) {
	if err := ctx.Err(); err != nil {
		return c, err
	}
	if g.N() == 1 {
		return Certificate{LambdaMax: 1, LambdaMin: 1, Cond: 1}, nil
	}
	vSpan := obs.StartSpan(ctx, "verify")
	defer func() { c.dur = vSpan.End() }()
	if solver == nil {
		fSpan := obs.StartSpan(ctx, obs.PhaseFactor)
		solver, err = cholesky.NewLapSolver(p)
		fSpan.End()
		if err != nil {
			return c, fmt.Errorf("engine: verification solver: %w", err)
		}
	}
	if steps > g.N() {
		steps = g.N() // coarse levels can be smaller than the input
	}
	c.LambdaMax, c.LambdaMin, c.Cond, err = core.VerifySimilarity(g, p, solver, steps, seed)
	if err != nil {
		return c, fmt.Errorf("engine: similarity verification: %w", err)
	}
	return c, nil
}
