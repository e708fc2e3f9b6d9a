// Package engine is the one batch pipeline of the repository: every
// execution plan produces a candidate backbone plus candidate edges,
// filters them by Joule heat until the σ² target is met, and ends in the
// same independent certificate check.
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
//   - The sharded plan k-way partitions the input, filters each induced
//     shard concurrently over a bounded worker pool, and stitches the
//     shard sparsifiers back together: the few cut edges needed for
//     connectivity join the backbone outright, the rest face a global
//     re-filter pass so the σ² guarantee is re-established end to end.
//     Sharding pays twice — the superlinear per-round costs drop to shard
//     size, and shards run on separate cores — but on small graphs its
//     fixed costs dominate (see the README for guidance).
//
// Which plan suits a graph is the caller's policy (the facade's auto
// mode); Run executes the plan it is handed.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/graph"
	"graphspar/internal/multilevel"
	"graphspar/internal/obs"
	"graphspar/internal/params"
)

const (
	// cutFilterFraction gates the sharded plan's global embedding pass:
	// the re-filter runs only when the partition's non-backbone cut
	// exceeds this fraction of the stitched edge set. A smaller cut is
	// kept whole, which certifies the end-to-end σ² *exactly* — with
	// every cut edge present, L_G − L_P is the direct sum of the
	// per-shard remainders, so the worst shard bound carries over
	// (λmin ≥ 1 by interlacing) — while skipping a full-size
	// factorization that could not pay for itself.
	cutFilterFraction = 0.05
	// defaultMaxLevels caps the hierarchy depth when CoarsenLevels is 0.
	defaultMaxLevels = 16
	// maxCalibrations caps the per-level calibrated refilter retries
	// when the verified κ misses the target the estimates cleared.
	maxCalibrations = 3
)

// Options configures Run: the one options struct of every batch plan — and
// of a stream, whose maintainer (dynamic.New) takes it as is for its
// full rebuilds.
type Options struct {
	// Sparsify configures the edge filter every plan runs — on the input
	// (single-shot), on each shard, or on the coarsest level — and
	// supplies the embedding knobs of every re-filter pass (at most
	// core.RefilterRounds per stitch or level). SigmaSq is required. Seed
	// (default 1) drives every random choice: partitioning, per-shard and
	// per-level seeds, the global passes and the certificate.
	Sparsify core.Options
	// Mode is the resolved execution plan. ModeAuto (the zero value) runs
	// single-shot: picking a plan per graph is the caller's policy.
	Mode params.Mode
	// Shards is the number of parts the sharded plan cuts the input into.
	// Default 4.
	Shards int
	// Workers is the one worker count: how many shards sparsify
	// concurrently, and how many goroutines every embedding pass spreads
	// its probe-vector solves over (a shard's own passes use one — the
	// shard pool is the parallelism there). Default GOMAXPROCS. Workers
	// only affects wall-clock time, never the result.
	Workers int
	// CoarsenLevels caps the multilevel hierarchy depth, counting the
	// input graph: 1 disables coarsening (the plan is then bit-identical
	// to single-shot), 0 picks the default cap.
	CoarsenLevels int
	// CoarsenRatio is the per-step acceptance ceiling on nc/n (see
	// multilevel.DefaultCoarsenRatio); 1 disables coarsening, 0 the
	// default.
	CoarsenRatio float64
	// CoarsestSize stops coarsening at or below this vertex count
	// (default multilevel.DefaultCoarsestSize).
	CoarsestSize int
	// Verify runs the independent generalized-Lanczos certificate check
	// on the final sparsifier (and, in the multilevel plan, on every
	// finer level, where it also drives the calibrated retries).
	Verify bool
	// VerifySteps is the Lanczos depth of that check. Default min(30, n).
	VerifySteps int
}

// defaults validates opt, resolves ModeAuto and fills every unset knob; it
// is the only place batch runs default Seed, Workers and VerifySteps.
func (o *Options) defaults(n int) error {
	if err := params.Sigma2(o.Sparsify.SigmaSq); err != nil {
		return err
	}
	if err := params.Sharding(o.Shards, o.Workers, params.Limits{}); err != nil {
		return err
	}
	if err := params.Coarsen(o.CoarsenLevels, o.CoarsenRatio); err != nil {
		return err
	}
	if o.Mode != params.ModeSharded && o.Mode != params.ModeMultilevel {
		o.Mode = params.ModeSingleShot
	}
	if o.Sparsify.Seed == 0 {
		o.Sparsify.Seed = 1
	}
	if o.Shards == 0 {
		o.Shards = 4
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	o.Sparsify.EmbedWorkers = o.Workers
	if o.CoarsenLevels == 0 {
		o.CoarsenLevels = defaultMaxLevels
	}
	if o.CoarsenRatio == 0 {
		o.CoarsenRatio = multilevel.DefaultCoarsenRatio
	}
	if o.CoarsestSize <= 0 {
		o.CoarsestSize = multilevel.DefaultCoarsestSize
	}
	if o.VerifySteps <= 0 {
		o.VerifySteps = 30
	}
	if o.VerifySteps > n {
		o.VerifySteps = n
	}
	if o.VerifySteps < 2 {
		o.VerifySteps = 2
	}
	return nil
}

// ShardStats reports one shard's sparsification (per connected component
// of a part; a part disconnected by the cut yields one entry per piece).
type ShardStats struct {
	Shard    int // part label this piece belongs to
	Vertices int
	Edges    int // induced edges handed to the shard sparsifier
	Kept     int // edges the shard sparsifier retained
	// SigmaSqAchieved/TargetMet/Rounds mirror the shard's core.Result.
	SigmaSqAchieved float64
	TargetMet       bool
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
	// per-level Lanczos check (0 without Options.Verify).
	SigmaSqEst   float64
	VerifiedCond float64
	Duration     time.Duration
}

// Timings breaks a Run down by phase. Single-shot runs fill only
// Sparsify, Verify and Wall; sharded runs additionally fill Partition,
// Shard, ShardCPU and Stitch; multilevel runs fill Coarsen, Interpolate
// and Refilter (summed over levels, as is their Verify). Partition is the
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
	// (in a sharded run with a small kept-whole cut, the exact direct-sum
	// certificate of the worst shard). TargetMet reports whether they met
	// σ²; the sharded and multilevel plans let the verified κ overrule
	// them when Options.Verify ran.
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

	// Sharded fields: the k-way partition (Parts can fall short of
	// Options.Shards on small graphs; it is 1 for the other plans),
	// per-shard stats and cut bookkeeping — CutEdges input edges crossed
	// the partition, StitchedCut of them were added for connectivity,
	// RecoveredCut more passed the global heat filter.
	Labels       []int
	Parts        int
	Shards       []ShardStats
	CutEdges     int
	StitchedCut  int
	RecoveredCut int

	// Multilevel fields: the hierarchy depth used (1 = no coarsening
	// happened) and per-level stats, indexed by level (0 = finest).
	Depth  int
	Levels []LevelStats

	// Verified* come from the independent generalized-Lanczos check of
	// the final sparsifier against the input graph (Verified is
	// Options.Verify); VerifiedCond is the authoritative end-to-end κ.
	Verified          bool
	VerifiedLambdaMax float64
	VerifiedLambdaMin float64
	VerifiedCond      float64

	Timings Timings
}

// Run executes opt.Mode's plan on g. A missed σ² target is reported in
// Result.TargetMet, never as an error (callers decide how to surface it).
// Cancellation of ctx stops the densification rounds and the re-filter
// passes at their next checkpoint and returns ctx.Err().
func Run(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	start := time.Now()
	if err := g.RequireConnected(); err != nil {
		return nil, err
	}
	if err := opt.defaults(g.N()); err != nil {
		return nil, err
	}
	res := &Result{Mode: opt.Mode, Parts: 1}
	run := res.runLevels // single-shot and multilevel: one plan, two depths
	if opt.Mode == params.ModeSharded {
		run = res.runSharded
	}
	solver, err := run(ctx, g, opt)
	if err != nil {
		return nil, err
	}

	// The shared tail: certify the final sparsifier against the input. A
	// genuinely coarsened multilevel run already did, as the last step of
	// its level-0 calibration loop.
	if opt.Verify && !res.Verified {
		c, err := Certify(ctx, g, res.Sparsifier, solver, opt.VerifySteps, opt.Sparsify.Seed)
		res.Timings.Verify += c.dur
		if err != nil {
			return nil, err
		}
		res.setCertificate(c)
		if res.Mode == params.ModeMultilevel {
			res.Levels[0].VerifiedCond = c.Cond
		}
	}
	if res.Verified && res.Mode != params.ModeSingleShot {
		res.TargetMet = res.VerifiedCond <= opt.Sparsify.SigmaSq
	}
	res.Timings.Wall = time.Since(start)
	res.Timings.Sparsify = res.Timings.Wall - res.Timings.Verify
	return res, nil
}

// Certificate is one independent similarity check: the extreme
// generalized eigenvalue estimates of (L_G, L_P) and their ratio κ, plus
// the duration of the "verify" span that measured them.
type Certificate struct {
	LambdaMax, LambdaMin, Cond float64
	dur                        time.Duration
}

func (r *Result) setCertificate(c Certificate) {
	r.Verified = true
	r.VerifiedLambdaMax, r.VerifiedLambdaMin, r.VerifiedCond = c.LambdaMax, c.LambdaMin, c.Cond
}

// Certify runs the generalized-Lanczos similarity check of p against g.
// It is the product's only certificate code: every plan's tail, every
// multilevel level and every settle pass of the dynamic maintainer goes
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
func Certify(ctx context.Context, g, p *graph.Graph, solver *cholesky.LapSolver, steps int, seed uint64) (c Certificate, err error) {
	if err := ctx.Err(); err != nil {
		return c, err
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
