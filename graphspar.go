// Package graphspar is the public API of the similarity-aware spectral
// sparsification toolkit (Feng, DAC 2018): given a weighted undirected
// connected graph G and a similarity target σ², it computes an
// ultra-sparse subgraph P whose relative condition number κ(L_G, L_P) is
// at most σ², and can keep that certificate valid while the graph mutates.
//
// One Sparsifier value fronts the whole repository:
//
//   - Run sparsifies a graph once through the batch pipeline, under one of
//     three plans — single-shot edge filtering (spanning-tree backbone plus
//     iterative Joule-heat recovery of off-tree edges), the shard-parallel
//     plan (k-way partition, concurrent per-shard filtering, cut stitching
//     with a global re-filter pass), or the multilevel plan (coarsen,
//     filter the coarsest graph, interpolate and re-filter level by
//     level) — and
//   - Maintain keeps a sparsifier's certificate valid incrementally
//     under edge insertions, deletions and reweights.
//
// Construct it once with functional options and reuse it across graphs:
//
//	s, err := graphspar.New(graphspar.WithSigma2(100), graphspar.WithSeed(7))
//	res, err := s.Run(ctx, g)        // one-off sparsifier + certificate
//	st, err := s.Maintain(ctx, g)    // live sparsifier for update batches
//
// Run picks the plan automatically — single-shot for small graphs, a
// parallel plan beyond AutoShardEdges edges — unless WithMode or
// WithShards pins it. Results are deterministic for a fixed seed and
// independent of worker counts.
package graphspar

import (
	"context"
	"fmt"

	"graphspar/internal/core"
	"graphspar/internal/dynamic"
	"graphspar/internal/engine"
	"graphspar/internal/obs"
	"graphspar/internal/partition"
)

// Auto path policy: with no explicit WithMode/WithShards choice, Run uses
// the single-shot pipeline below AutoShardEdges edges and a parallel path
// at or above it — the sharded plan by default, or the multilevel
// hierarchy for inputs the flat partition handles badly: graphs at or
// beyond AutoMultilevelEdges edges (too big for the per-shard single-shot
// core) and ill-partitioned graphs, where a cheap O(n+m) BFS bisection
// probe finds at least AutoIllCutFraction of the edges crossing a
// balanced cut (stitching would degrade into global re-filter passes over
// that cut). The thresholds are where each path's fixed costs start
// paying for themselves; the policy depends only on the graph, never on
// the machine, so results stay reproducible across hosts.
const (
	AutoShardEdges      = 200_000
	AutoShards          = 4
	AutoMultilevelEdges = 1_000_000
	AutoIllCutFraction  = 0.10
)

// Sparsifier is a reusable, immutable sparsification configuration. The
// zero value is not usable; build one with New. A Sparsifier is safe for
// concurrent use: Run and Maintain never mutate it.
type Sparsifier struct {
	cfg config
}

// New builds a Sparsifier from functional options. WithSigma2 is
// required; everything else defaults as documented on the option.
// Validation errors are typed: errors.Is(err, ErrInvalidOptions) matches
// any of them, ErrBadSigma2 the missing/bad target specifically.
func New(opts ...Option) (*Sparsifier, error) {
	var cfg config
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.opt.Sparsify.Seed == 0 {
		cfg.opt.Sparsify.Seed = 1 // the documented default, resolved once
	}
	return &Sparsifier{cfg: cfg}, nil
}

// Sigma2 reports the configured similarity target.
func (s *Sparsifier) Sigma2() float64 { return s.cfg.opt.Sparsify.SigmaSq }

// Run sparsifies g to the configured σ² target and returns the unified
// Result. The execution plan is chosen per the WithMode/WithShards
// documentation (auto below/above AutoShardEdges unless pinned).
// Cancellation of ctx stops the densification rounds at their next
// checkpoint.
//
// When the round budget is exhausted with the target unmet, Run returns
// the best sparsifier found together with ErrNoTarget (Result.TargetMet
// is false); every other error returns a nil Result.
func (s *Sparsifier) Run(ctx context.Context, g *Graph) (*Result, error) {
	// Every Run carries a phase trace: pipeline spans (partition, shard,
	// stitch, embed, verify, ...) land in Result.Phases and aggregate
	// into the process-wide phase histograms. A trace already attached by
	// the caller (NewTraceContext) is reused, so a serving layer sees the
	// same spans it would collect itself.
	tr := obs.FromContext(ctx)
	if tr == nil {
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
	}
	er, err := engine.Run(ctx, g, s.cfg.plan(g, false))
	if err != nil {
		return nil, err
	}
	res := &Result{
		Sparsifier:        er.Sparsifier,
		Sharded:           er.Mode == ModeSharded,
		Multilevel:        er.Mode == ModeMultilevel,
		LambdaMax:         er.LambdaMax,
		LambdaMin:         er.LambdaMin,
		SigmaSqAchieved:   er.SigmaSqEst,
		TargetMet:         er.TargetMet,
		TotalStretch:      er.TotalStretch,
		TreeEdgeIDs:       er.TreeEdgeIDs,
		OffTreeAddedIDs:   er.OffTreeAddedIDs,
		Rounds:            er.Rounds,
		Parts:             er.Parts,
		Shards:            er.Shards,
		CutEdges:          er.CutEdges,
		StitchedCut:       er.StitchedCut,
		RecoveredCut:      er.RecoveredCut,
		CoarsenDepth:      er.Depth,
		Levels:            er.Levels,
		Verified:          er.Verified,
		VerifiedLambdaMax: er.VerifiedLambdaMax,
		VerifiedLambdaMin: er.VerifiedLambdaMin,
		VerifiedCond:      er.VerifiedCond,
		Timings:           Timings(er.Timings),
		Phases:            tr.Phases(),
	}
	if !res.TargetMet {
		return res, ErrNoTarget
	}
	return res, nil
}

// plan resolves the auto policy for g — the explicit WithMode choice when
// set, a WithShards pin next, then the size/topology policy documented on
// the Auto* constants — and assembles the one options struct the batch
// pipeline (and a stream's full rebuilds) run with. A stream never takes
// the multilevel plan: where Run's auto policy would, its rebuilds shard.
func (c *config) plan(g *Graph, stream bool) engine.Options {
	opt := c.opt
	if opt.Mode == ModeAuto {
		switch {
		case opt.Shards == 1:
			opt.Mode = ModeSingleShot
		case opt.Shards > 1:
			opt.Mode = ModeSharded
		case opt.Sparsify.MaxEdges > 0 || g.M() < AutoShardEdges:
			// An edge budget pins auto to single-shot: the sharded plan
			// would apply the cap per shard, silently inflating it.
			opt.Mode = ModeSingleShot
		case !stream && (g.M() >= AutoMultilevelEdges || c.illPartitioned(g)):
			opt.Mode = ModeMultilevel
		default:
			opt.Mode = ModeSharded
		}
	}
	if opt.Mode == ModeSharded && opt.Shards == 0 {
		opt.Shards = AutoShards
	}
	// Single-shot certifies on request; the parallel plans always do
	// (stitching and interpolation are only as good as their check).
	opt.Verify = opt.Verify || opt.Mode != ModeSingleShot
	return opt
}

// illPartitioned probes whether flat sharding would fight the topology:
// it runs the sharded plan's own solver-free BFS level-set bisector and
// reports whether the balanced cut crosses at least AutoIllCutFraction of
// the edges. On such graphs (dense blocks the partition must slice
// through) stitching degrades into global re-filter passes over the cut,
// which is exactly the work the multilevel hierarchy avoids. O(n+m),
// deterministic.
func (c *config) illPartitioned(g *Graph) bool {
	pr, err := partition.SpectralBisect(g, partition.Options{Method: partition.BFS, Seed: c.opt.Sparsify.Seed})
	if err != nil {
		return false
	}
	cut := 0
	for _, e := range g.Edges() {
		if pr.Signs[e.U] != pr.Signs[e.V] {
			cut++
		}
	}
	return float64(cut) >= AutoIllCutFraction*float64(g.M())
}

// NewTraceContext attaches a fresh phase trace to ctx. Run records its
// per-phase spans there (the same list it returns in Result.Phases);
// Stream.Apply records its maintenance phases (settle, refilter, embed,
// verify) there too, which is the only way to get a per-batch breakdown
// out of a stream.
func NewTraceContext(ctx context.Context) (context.Context, *Trace) {
	tr := obs.NewTrace()
	return obs.WithTrace(ctx, tr), tr
}

// Maintain sparsifies g from scratch and returns a Stream that keeps the
// sparsifier's σ² certificate valid under batched edge updates (see
// Stream.Apply). The stream's full builds and rebuilds run the sharded
// plan exactly when the graph is big enough for Run to leave single-shot
// (WithShards pin, or the auto policy). WithMaxEdges does not compose
// with streams:
// the maintainer's re-filter rounds admit whatever the certificate
// needs, so an edge budget cannot be honored.
func (s *Sparsifier) Maintain(ctx context.Context, g *Graph) (*Stream, error) {
	if err := s.maintainable(); err != nil {
		return nil, err
	}
	m, err := dynamic.New(ctx, g, s.cfg.plan(g, true))
	if err != nil {
		return nil, err
	}
	return &Stream{m: m}, nil
}

// maintainable rejects configurations the maintainer cannot honor.
func (s *Sparsifier) maintainable() error {
	if s.cfg.opt.Sparsify.MaxEdges > 0 {
		return fmt.Errorf("%w: WithMaxEdges does not compose with Maintain", ErrInvalidOptions)
	}
	if s.cfg.opt.Mode == ModeMultilevel {
		// The maintainer's rebuilds run the single-shot or the sharded
		// plan; a pinned hierarchy mode cannot be honored.
		return fmt.Errorf("%w: WithMode(ModeMultilevel) does not compose with Maintain", ErrInvalidOptions)
	}
	return nil
}

// HeatSpectrum supports the paper's Fig. 2 reproduction: it extracts a
// backbone tree, runs a single Joule-heat embedding round (t steps, r
// vectors; a non-positive t defaults to 1, the figure's setting — not
// Run's 2 — and a non-positive r to Run's ⌈log₂(n+1)⌉) and returns all
// off-tree heats normalized by the max, sorted descending, together with
// the similarity-aware thresholds θσ for the requested σ² values.
func HeatSpectrum(g *Graph, t, r int, sigmaSqs []float64, alg TreeAlgorithm, seed uint64) (norm, thresholds []float64, err error) {
	return core.HeatSpectrum(g, t, r, sigmaSqs, alg, seed)
}
