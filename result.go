package graphspar

import (
	"time"

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

// Timings breaks a Run down by phase. Single-shot runs fill only
// Sparsify, Verify and Wall; sharded runs additionally fill Partition,
// Shard, ShardCPU and Stitch; multilevel runs fill Coarsen and
// Interpolate (summed over levels). Refilter sums every re-filter pass:
// per level, the sharded plan's global pass and the certificate's
// calibrations. ShardCPU sums the per-shard
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

// Result is the unified output of Sparsifier.Run across every execution
// plan. Fields that only one plan produces are documented as such and
// are zero for the others.
type Result struct {
	// Sparsifier is P: a connected subgraph of the input with original
	// edge weights, certified (or best-effort, see TargetMet) to satisfy
	// κ(L_G, L_P) ≤ σ².
	Sparsifier *Graph
	// Sharded/Multilevel report which execution plan ran (both false for
	// single-shot).
	Sharded    bool
	Multilevel bool

	// LambdaMax/LambdaMin are the pipeline's own final extreme-eigenvalue
	// estimates of L_P⁺L_G, and SigmaSqAchieved their ratio — the achieved
	// σ² estimate. In a sharded run with a small kept-whole cut these are
	// the worst shard's estimates, which the direct sum carries over.
	LambdaMax, LambdaMin float64
	SigmaSqAchieved      float64
	// TargetMet is the run's one verdict on the σ² target, on every plan:
	// VerifiedCond ≤ σ². When false, Run also returned ErrNoTarget.
	TargetMet bool

	// Single-shot fields: backbone total stretch, tree/off-tree edge ids
	// into the input graph's edge list, and the per-round densification
	// trace.
	TotalStretch    float64
	TreeEdgeIDs     []int
	OffTreeAddedIDs []int
	Rounds          []RoundStats

	// Sharded fields: partition arity (AutoShards, or fewer on a small
	// graph), per-shard stats, and cut
	// bookkeeping (CutEdges crossed the partition; StitchedCut were added
	// for connectivity, RecoveredCut more passed the global heat filter —
	// plus, on any plan but a coarsened multilevel run, the edges the
	// certificate's calibrated re-filters admitted).
	Parts        int
	Shards       []ShardStats
	CutEdges     int
	StitchedCut  int
	RecoveredCut int

	// Multilevel fields: hierarchy depth (1 = coarsening never engaged)
	// and per-level stats, indexed by level (0 = finest).
	CoarsenDepth int
	Levels       []LevelStats

	// Verified* carry the estimates of the independent generalized-Lanczos
	// check every Run ends with, VerifiedCond the authoritative end-to-end
	// κ. While it exceeds σ² and candidates remain, Run re-filters toward
	// a calibrated tighter target and checks again (at most three times),
	// so Verified* describe the returned Sparsifier.
	VerifiedLambdaMax float64
	VerifiedLambdaMin float64
	VerifiedCond      float64

	Timings Timings

	// Phases is the ordered span trace of this run: every timed pipeline
	// phase with its offset and duration. Finer-grained than Timings
	// (embed rounds and re-filter passes appear individually) and also
	// recorded on any trace the caller attached via NewTraceContext, which
	// may hold earlier spans; Phases starts where this run's spans do.
	Phases []Phase
}

// Density returns |E_P| / |V|, the sparsifier density the paper reports.
func (r *Result) Density() float64 {
	return float64(r.Sparsifier.M()) / float64(r.Sparsifier.N())
}

// Speedup reports the speedup of a sharded run's shard phase, ShardCPU ÷
// Shard (1.0 for single-shot runs); divided by the worker count it is the
// phase's parallel efficiency.
func (r *Result) Speedup() float64 {
	if r.Timings.Shard <= 0 {
		return 1
	}
	return float64(r.Timings.ShardCPU) / float64(r.Timings.Shard)
}
