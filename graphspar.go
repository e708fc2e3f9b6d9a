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
//     plan (AutoShards-way partition, concurrent per-shard filtering, cut
//     stitching with a global re-filter pass), or the multilevel plan
//     (coarsen, filter the coarsest graph, interpolate and re-filter level
//     by level) — and
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
// parallel plan beyond AutoShardEdges edges — unless WithMode pins it.
// Whatever the plan, Run certifies its result against g with an
// independent generalized-Lanczos check, and Result.TargetMet is that
// certificate's verdict. Results are
// deterministic for a fixed seed and independent of worker counts.
package graphspar

import (
	"context"
	"fmt"

	"graphspar/internal/core"
	"graphspar/internal/dynamic"
	"graphspar/internal/engine"
	"graphspar/internal/obs"
	"graphspar/internal/params"
	"graphspar/internal/partition"
)

// Auto path policy: with no explicit WithMode choice, Run uses
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
//
// AutoShards is the sharded plan's fixed arity (engine.Shards), whoever
// picks the plan. The plan pays at that arity: on the 320×320 mesh
// (204 160 edges) that ModeAuto shards on 2 workers,
// `go run -C cmd/bench . -workload mesh_sharded -trace 1` reads
// engine.speedup_vs_single 1.13–1.64 over ten runs on a shared 2-core
// x86-64 box (median 1.52 for five runs while the arity was still an
// option, 1.36 for five with this constant; the single-shot baseline is
// one timed run, hence the spread).
const (
	AutoShardEdges      = 200_000
	AutoShards          = engine.Shards
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
	if err := params.Sigma2(cfg.opt.Sparsify.SigmaSq); err != nil {
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
// Result. The execution plan is chosen per the WithMode
// documentation (auto below/above AutoShardEdges unless pinned).
// Cancellation of ctx stops the densification rounds at their next
// checkpoint.
//
// Every plan ends in the same stop rule: an independent
// generalized-Lanczos certificate of the result against g, with
// calibrated re-filters while it misses σ². When the certified κ still
// misses the target (Result.TargetMet is false), Run returns the result
// together with ErrNoTarget, wrapped with that κ. Every other error
// returns a nil Result.
func (s *Sparsifier) Run(ctx context.Context, g *Graph) (*Result, error) {
	// Every Run carries a phase trace: pipeline spans (partition, shard,
	// stitch, embed, verify, ...) land in Result.Phases and aggregate
	// into the process-wide phase histograms. A trace already attached by
	// the caller (NewTraceContext) is reused, so a serving layer sees the
	// same spans it would collect itself; Result.Phases holds only the
	// spans this Run added after the ones already on it.
	tr := obs.FromContext(ctx)
	if tr == nil {
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
	}
	mark := len(tr.Phases())
	res, err := engine.Run(ctx, g, s.cfg.plan(g, false))
	if err != nil {
		return nil, err
	}
	res.Phases = tr.Phases()[mark:]
	if !res.TargetMet {
		return res, fmt.Errorf("%w: verified κ %.2f > σ² %g", ErrNoTarget, res.VerifiedCond, s.Sigma2())
	}
	return res, nil
}

// plan resolves the auto policy for g — the explicit WithMode choice when
// set, else the size/topology policy documented on the Auto* constants —
// and assembles the one options struct the batch pipeline (and a
// stream's full rebuilds) run with. A stream never takes the multilevel
// plan: where Run's auto policy would, its rebuilds shard.
func (c *config) plan(g *Graph, stream bool) engine.Options {
	opt := c.opt
	if opt.Mode == ModeAuto {
		switch {
		case g.M() < AutoShardEdges:
			opt.Mode = ModeSingleShot
		case !stream && (g.M() >= AutoMultilevelEdges || c.illPartitioned(g)):
			opt.Mode = ModeMultilevel
		default:
			opt.Mode = ModeSharded
		}
	}
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
// out of a stream. Sequential Runs on one trace each return only their own
// spans; Runs sharing one trace concurrently see each other's spans in
// Result.Phases.
func NewTraceContext(ctx context.Context) (context.Context, *Trace) {
	tr := obs.NewTrace()
	return obs.WithTrace(ctx, tr), tr
}

// Maintain sparsifies g from scratch and returns a Stream that keeps the
// sparsifier's σ² certificate valid under batched edge updates (see
// Stream.Apply). The stream's full builds and rebuilds run the sharded
// plan exactly when the graph is big enough for Run to leave single-shot
// (WithMode(ModeSharded), or the auto policy). WithMode(ModeMultilevel) does not
// compose with streams: the maintainer's rebuilds run the single-shot or
// the sharded plan, so a pinned hierarchy mode cannot be honored.
func (s *Sparsifier) Maintain(ctx context.Context, g *Graph) (*Stream, error) {
	if s.cfg.opt.Mode == ModeMultilevel {
		return nil, fmt.Errorf("%w: WithMode(ModeMultilevel) does not compose with Maintain", ErrInvalidOptions)
	}
	return dynamic.New(ctx, g, s.cfg.plan(g, true))
}

// HeatSpectrum supports the paper's Fig. 2 reproduction: it extracts the
// max-weight backbone tree, runs a single Joule-heat embedding round (t
// steps, r vectors; a non-positive t defaults to 1, the figure's setting
// — not Run's 2 — and a non-positive r to Run's ⌈log₂(n+1)⌉) and returns all
// off-tree heats normalized by the max, sorted descending, together with
// the similarity-aware thresholds θσ for the requested σ² values.
func HeatSpectrum(g *Graph, t, r int, sigmaSqs []float64, seed uint64) (norm, thresholds []float64, err error) {
	return core.HeatSpectrum(g, t, r, sigmaSqs, seed)
}
