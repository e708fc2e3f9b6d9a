package graphspar

import (
	"graphspar/internal/core"
	"graphspar/internal/engine"
	"graphspar/internal/obs"
)

// RoundStats records one densification iteration of the single-shot
// pipeline (or of one shard's pipeline in a sharded run).
type RoundStats = core.RoundStats

// ShardStats reports one shard's sparsification in a sharded run.
type ShardStats = engine.ShardStats

// LevelStats reports one hierarchy level of a multilevel run (level 0 is
// the input graph, the highest level the coarsest).
type LevelStats = engine.LevelStats

// Phase is one timed pipeline span (partition, shard, stitch, embed,
// verify, settle, refilter, ...). Start is the offset from the start of
// the trace that collected it.
type Phase = obs.Phase

// Trace collects the Phase spans of one request; obtain one bound to a
// context with NewTraceContext. Run also returns its spans in
// Result.Phases, so an explicit Trace is only needed for Stream.Apply
// (which has no result struct to hang phases on).
type Trace = obs.Trace

// Timings breaks a Run down by phase; see engine.Timings for which plan
// fills which field.
type Timings = engine.Timings

// Result is the unified output of Sparsifier.Run across every execution
// plan: the sparsifier, its certified κ (VerifiedCond, TargetMet) and the
// plan's bookkeeping. It is the batch pipeline's own result struct; each
// field is documented on engine.Result, together with Density and
// Speedup.
type Result = engine.Result
