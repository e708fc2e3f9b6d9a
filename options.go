package graphspar

import (
	"fmt"

	"graphspar/internal/engine"
	"graphspar/internal/params"
)

// Mode selects Run's execution plan; WithMode pins it.
type Mode = params.Mode

// Execution modes.
const (
	// ModeAuto (the default) picks the plan from the graph: single-shot
	// below AutoShardEdges edges, multilevel at or above
	// AutoMultilevelEdges or when a cheap partition probe finds the graph
	// ill-partitioned, sharded otherwise.
	ModeAuto = params.ModeAuto
	// ModeSingleShot pins the plain edge-filter pipeline.
	ModeSingleShot = params.ModeSingleShot
	// ModeSharded pins the shard-parallel plan (WithShards sets the
	// arity; AutoShards otherwise).
	ModeSharded = params.ModeSharded
	// ModeMultilevel pins the coarsen → sparsify-coarse → interpolate →
	// refilter hierarchy plan.
	ModeMultilevel = params.ModeMultilevel
)

// ParseMode resolves an execution-mode name ("auto", "single", "sharded",
// "multilevel"; empty means auto) for flags and wire formats.
func ParseMode(name string) (Mode, error) { return params.ParseMode(name) }

// config is what a Sparsifier carries: the pipeline's own options struct,
// written into directly by the functional options. Zero fields defer to
// the pipeline defaults.
type config struct {
	// opt configures Run and, through Maintain, a stream's
	// full rebuilds alike. Mode and Shards hold the user's pins
	// (ModeAuto / 0 = unpinned) that plan resolves per graph, and Verify
	// records WithVerification.
	opt engine.Options
}

// validate rejects an unusable target and contradictory plan pins (the
// shared table in internal/params, which the service's wire layer also
// applies).
func (c *config) validate() error {
	if err := params.Sigma2(c.opt.Sparsify.SigmaSq); err != nil {
		return err
	}
	return params.Plan(c.opt.Mode, c.opt.Shards, c.opt.Sparsify.MaxEdges, c.opt.CoarsenLevels, c.opt.CoarsenRatio)
}

// Option configures a Sparsifier under construction.
type Option func(*config) error

// WithSigma2 sets the similarity target σ², the upper bound on the
// relative condition number κ(L_G, L_P) the sparsifier must certify
// (e.g. 50, 100, 200; larger is sparser). Required, must be > 1.
func WithSigma2(sigmaSq float64) Option {
	return func(c *config) error {
		c.opt.Sparsify.SigmaSq = sigmaSq
		return nil
	}
}

// WithShards pins the execution plan of Run: 1 forces single-shot, k > 1
// forces the sharded plan with k shards, and 0 restores the default auto
// policy (single-shot below AutoShardEdges edges, a parallel plan above).
// With Maintain, k > 1 runs the stream's full rebuilds sharded.
func WithShards(k int) Option {
	return func(c *config) error {
		if k < 0 {
			return fmt.Errorf("%w: got %d", ErrBadShards, k)
		}
		c.opt.Shards = k
		return nil
	}
}

// WithMode pins Run's execution plan: single-shot, sharded, or the
// multilevel hierarchy; ModeAuto (the default) picks per graph as
// documented on the constants. Contradictory combinations with WithShards
// are rejected by New (WithShards(1) pins single-shot, k > 1 sharded).
// ModeMultilevel does not compose with Maintain or WithMaxEdges.
func WithMode(m Mode) Option {
	return func(c *config) error {
		switch m {
		case ModeAuto, ModeSingleShot, ModeSharded, ModeMultilevel:
			c.opt.Mode = m
			return nil
		}
		return fmt.Errorf("%w: %d", params.ErrBadMode, int(m))
	}
}

// WithCoarsenLevels caps the multilevel hierarchy depth, counting the
// input graph as level one: 1 disables coarsening (Run is then
// bit-identical to the single-shot pipeline), 0 restores the default cap.
// Only multilevel runs consult it, so New rejects it next to a pinned
// single-shot or sharded mode.
func WithCoarsenLevels(n int) Option {
	return func(c *config) error {
		c.opt.CoarsenLevels = n
		return nil
	}
}

// WithCoarsenRatio sets the acceptance ceiling on the per-step vertex
// shrink factor nc/n of the multilevel hierarchy: a coarsening step that
// cannot shrink below this fraction ends the hierarchy. 1 disables
// coarsening entirely (bit-identical to single-shot), 0 restores the
// default. Only multilevel runs consult it, so New rejects it next to a
// pinned single-shot or sharded mode.
func WithCoarsenRatio(r float64) Option {
	return func(c *config) error {
		c.opt.CoarsenRatio = r
		return nil
	}
}

// WithWorkers is the one worker count (0 = all cores): it bounds how many
// shards sparsify concurrently in the sharded plan and how many
// goroutines every embedding pass — of any plan, and of a stream's
// maintainer — spreads its probe-vector solves over. Workers only affect
// wall-clock time, never the result.
func WithWorkers(n int) Option {
	return func(c *config) error {
		c.opt.Workers = n
		return nil
	}
}

// WithSeed drives every random choice (probe vectors, shard seeds).
// Results are deterministic per seed; 0 means the default seed 1.
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		c.opt.Sparsify.Seed = seed
		return nil
	}
}

// WithEmbedSteps sets t, the generalized power-iteration step count of
// the Joule-heat edge embedding (default 2; the paper shows t = 2
// suffices).
func WithEmbedSteps(t int) Option {
	return func(c *config) error {
		c.opt.Sparsify.T = t
		return nil
	}
}

// WithProbeVectors sets r, the number of random probe vectors of the
// embedding (default O(log |V|)).
func WithProbeVectors(r int) Option {
	return func(c *config) error {
		c.opt.Sparsify.NumVectors = r
		return nil
	}
}

// WithMaxEdges caps the sparsifier size (tree edges included) for
// equal-budget comparisons; 0 means unlimited. Single-shot only.
func WithMaxEdges(n int) Option {
	return func(c *config) error {
		c.opt.Sparsify.MaxEdges = n
		return nil
	}
}

// WithVerification enables the independent generalized-Lanczos check of
// the final certificate on every Run (without it only the sharded and
// multilevel plans certify) and sets its depth; steps ≤ 0 keeps the default depth
// min(30, |V|). With Maintain, a positive steps value sets the per-batch
// certificate depth (default 12).
func WithVerification(steps int) Option {
	return func(c *config) error {
		c.opt.Verify = true
		if steps > 0 {
			c.opt.VerifySteps = steps
		}
		return nil
	}
}
