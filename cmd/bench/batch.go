package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"graphspar"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/pcg"
)

// Pinned generator and sparsifier seeds. The graph and the sparsifier's
// own randomness are part of the workload definition, not of -seed: which
// edges survive decides the round count, so a per-run graph would move
// op_p50_ms by tens of percent between seeds (measured: 192×192 mesh, 1.72 s
// per op at weight seed 1, 1.33 s at 2; SBM 4×512, 1.5 s at seed 3, 7.5 s at
// 7) and bury any real change. -seed draws the right-hand sides instead.
// The weight seeds were picked once so the baseline κ̂ has headroom under
// σ² (README, "Pinned seeds").
const (
	meshSolveGraphSeed   = 2
	meshShardedGraphSeed = 1
	sbmGraphSeed         = 3
	sparsifierSeed       = 1
)

// runRecord is what the harness keeps of one Run for the per-layer ledger.
type runRecord struct {
	wall    time.Duration
	timings graphspar.Timings
	phases  []graphspar.Phase
}

// batchInst is the shared shape of the three batch workloads: one graph,
// one Sparsifier, an op that Runs it and (optionally) factors P and
// solves qualityRHS systems.
type batchInst struct {
	g       *graph.Graph
	regen   func() (*graph.Graph, error)
	sp      *graphspar.Sparsifier
	solves  bool
	b       [][][]float64 // [op][k] right-hand sides, generated in set-up
	hash    hasher
	last    *graphspar.Result
	lastX   [][]float64
	lastOp  int
	records []runRecord // traced ops only
}

func newBatch(ctx context.Context, regen func() (*graph.Graph, error), solves bool, seed uint64, ops int, opts ...graphspar.Option) (*batchInst, error) {
	g, err := regen()
	if err != nil {
		return nil, err
	}
	if err := g.RequireConnected(); err != nil {
		return nil, err
	}
	opts = append([]graphspar.Option{graphspar.WithSigma2(sigma2), graphspar.WithSeed(sparsifierSeed), graphspar.WithWorkers(workers)}, opts...)
	sp, err := graphspar.New(opts...)
	if err != nil {
		return nil, err
	}
	in := &batchInst{g: g, regen: regen, sp: sp, solves: solves}
	in.hash.add([]byte(g.ContentHash()))
	if solves {
		// Ops 0..ops-1 are timed; slot ops is the warm-up's.
		in.b = make([][][]float64, ops+1)
		var buf [8]byte
		for i := range in.b {
			in.b[i] = make([][]float64, qualityRHS)
			for k := range in.b[i] {
				in.b[i][k] = rhs(g.N(), seed+uint64(i*qualityRHS+k)*0x9e3779b97f4a7c15)
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(in.b[i][k][0]))
				in.hash.add(buf[:])
			}
		}
	}
	// Warm-up: one full untimed op fills the Sparsifier's workspace pools
	// and the graph's lazily built indices.
	if err := in.op(ctx, 0, ops, nil, 0); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	if err := in.verify(0, ops); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return in, nil
}

func setupMeshSolve(ctx context.Context, seed uint64, ops int, quick bool) (instance, error) {
	side := 192
	if quick {
		side = 24
	}
	regen := func() (*graph.Graph, error) { return gen.Grid2D(side, side, gen.UniformWeights, meshSolveGraphSeed) }
	return newBatch(ctx, regen, true, seed, ops, graphspar.WithMode(graphspar.ModeSingleShot), graphspar.WithVerification(0))
}

func setupMeshSharded(ctx context.Context, seed uint64, ops int, quick bool) (instance, error) {
	side := 320 // m = 204 160 ≥ AutoShardEdges, so ModeAuto shards
	var opts []graphspar.Option
	if quick {
		// Too small for the auto policy; pin the same 4-shard path.
		side = 32
		opts = append(opts, graphspar.WithShards(graphspar.AutoShards))
	}
	regen := func() (*graph.Graph, error) { return gen.Grid2D(side, side, gen.UniformWeights, meshShardedGraphSeed) }
	return newBatch(ctx, regen, false, seed, ops, opts...)
}

func setupSBMMultilevel(ctx context.Context, seed uint64, ops int, quick bool) (instance, error) {
	block := 512
	if quick {
		block = 96
	}
	regen := func() (*graph.Graph, error) {
		g, _, err := gen.SBM(4, block, 0.04, 0.008, sbmGraphSeed)
		return g, err
	}
	return newBatch(ctx, regen, true, seed, ops, graphspar.WithMode(graphspar.ModeMultilevel))
}

func (in *batchInst) clients() int         { return 1 }
func (in *batchInst) scheduleHash() string { return in.hash.String() }
func (in *batchInst) close()               {}

func (in *batchInst) regenerate() error {
	_, err := in.regen()
	return err
}

func (in *batchInst) op(ctx context.Context, _, i int, tr *tracer, parent int) error {
	id := tr.begin(parent, "graphspar.Run", "graphspar")
	t0 := time.Now()
	res, err := in.sp.Run(ctx, in.g)
	wall := time.Since(t0)
	tr.end(id)
	if err != nil {
		return err
	}
	tr.addPhases(id, res.Phases)
	in.last, in.lastOp, in.lastX = res, i, nil
	if tr != nil {
		in.records = append(in.records, runRecord{wall, res.Timings, res.Phases})
	}
	if !res.TargetMet {
		return errNotMet
	}
	if !in.solves {
		return nil
	}
	id = tr.begin(parent, "pcg.NewCholPrecond", "cholesky")
	pre, err := pcg.NewCholPrecond(res.Sparsifier)
	tr.end(id)
	if err != nil {
		return err
	}
	for _, b := range in.b[i] {
		x := make([]float64, in.g.N())
		id = tr.begin(parent, "pcg.SolveLaplacian", "pcg")
		_, err := pcg.SolveLaplacian(in.g, pre, x, b, solveTol, 0)
		tr.end(id)
		if err != nil {
			return err
		}
		in.lastX = append(in.lastX, x)
	}
	return nil
}

func (in *batchInst) verify(_, i int) error {
	if in.last == nil || in.lastOp != i {
		return fmt.Errorf("check: op %d left no result", i)
	}
	if err := checkSparsifier(in.g, in.last.Sparsifier); err != nil {
		return err
	}
	for k, x := range in.lastX {
		if err := checkSolution(in.g, x, in.b[i][k]); err != nil {
			return err
		}
	}
	return nil
}

func (in *batchInst) finish(context.Context) ([]pair, error) {
	if in.last == nil {
		return nil, fmt.Errorf("check: no op produced a sparsifier")
	}
	return []pair{{in.g, in.last.Sparsifier}}, nil
}

// phaseCoverage is the share of a Run's wall its reported phases cover
// (the union of their intervals).
func phaseCoverage(r runRecord) float64 {
	iv := make([][2]int64, len(r.phases))
	for i, p := range r.phases {
		iv[i] = [2]int64{int64(p.Start), int64(p.Start + p.Duration)}
	}
	return float64(unionLen(iv)) / float64(r.wall)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianOf reduces the traced runs' records to one number.
func medianOf(rs []runRecord, f func(runRecord) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return median(v)
}

func (in *batchInst) layers(ctx context.Context, _ []Span, m map[string]float64) error {
	rs := in.records
	if len(rs) == 0 || in.last == nil {
		return fmt.Errorf("layers: no traced run")
	}
	m["graphspar.run_ms"] = medianOf(rs, func(r runRecord) float64 { return ms(r.wall) })
	m["graphspar.phase_coverage_share"] = medianOf(rs, phaseCoverage)
	switch {
	case in.last.Sharded:
		m["engine.run_ms"] = m["graphspar.run_ms"]
		m["engine.shard_wall_ms"] = medianOf(rs, func(r runRecord) float64 { return ms(r.timings.Shard) })
		m["engine.shard_cpu_ms"] = medianOf(rs, func(r runRecord) float64 { return ms(r.timings.ShardCPU) })
		m["engine.stitch_ms"] = medianOf(rs, func(r runRecord) float64 { return ms(r.timings.Stitch) })
		m["engine.verify_ms"] = medianOf(rs, func(r runRecord) float64 { return ms(r.timings.Verify) })
		m["engine.recovered_cut"] = float64(in.last.RecoveredCut)
		m["engine.parallel_efficiency"] = m["engine.shard_cpu_ms"] / (workers * m["engine.shard_wall_ms"])
		// The plain baseline: the same graph through the single-shot
		// pipeline, certificate included, as the sharded Run has it.
		single, err := graphspar.New(graphspar.WithSigma2(sigma2), graphspar.WithSeed(sparsifierSeed), graphspar.WithWorkers(workers),
			graphspar.WithMode(graphspar.ModeSingleShot), graphspar.WithVerification(0))
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := single.Run(ctx, in.g); err != nil {
			return fmt.Errorf("layers: single-shot baseline: %w", err)
		}
		m["engine.speedup_vs_single"] = ms(time.Since(t0)) / m["engine.run_ms"]
	case in.last.Multilevel:
		m["multilevel.run_ms"] = m["graphspar.run_ms"]
		m["multilevel.coarsen_ms"] = medianOf(rs, func(r runRecord) float64 { return ms(r.timings.Coarsen) })
		m["multilevel.interpolate_ms"] = medianOf(rs, func(r runRecord) float64 { return ms(r.timings.Interpolate) })
		m["multilevel.refilter_ms"] = medianOf(rs, func(r runRecord) float64 { return ms(r.timings.Refilter) })
		m["multilevel.verify_ms"] = medianOf(rs, func(r runRecord) float64 { return ms(r.timings.Verify) })
		m["multilevel.depth"] = float64(in.last.CoarsenDepth)
	}
	return nil
}
