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
	// ModeSharded pins the shard-parallel plan, which always cuts
	// AutoShards parts.
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
	// full rebuilds alike. Mode holds the user's pin (ModeAuto =
	// unpinned) that plan resolves per graph.
	opt engine.Options
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

// WithShards spells a plan as a shard count: 0 is WithMode(ModeAuto), 1
// WithMode(ModeSingleShot) and AutoShards WithMode(ModeSharded). Any
// other count is ErrBadShards: the sharded plan always cuts AutoShards
// parts.
//
// Deprecated: use WithMode.
func WithShards(k int) Option {
	switch k {
	case 0:
		return WithMode(ModeAuto)
	case 1:
		return WithMode(ModeSingleShot)
	case AutoShards:
		return WithMode(ModeSharded)
	}
	return func(*config) error {
		return fmt.Errorf("%w: got %d, want 0, 1 or %d", ErrBadShards, k, AutoShards)
	}
}

// WithMode pins Run's execution plan: single-shot, sharded, or the
// multilevel hierarchy; ModeAuto (the default) picks per graph as
// documented on the constants. ModeMultilevel does not compose with
// Maintain.
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

// WithVerification does nothing. Every Run certifies its result with
// the independent generalized-Lanczos check at depth min(30, |V|), and a
// stream certifies every batch at depth min(12, |V|); neither depth is
// configurable.
//
// Deprecated: certification is no longer optional; drop the option.
func WithVerification(steps int) Option {
	return func(*config) error { return nil }
}
