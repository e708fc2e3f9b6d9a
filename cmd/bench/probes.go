package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/eig"
	"graphspar/internal/lsst"
	"graphspar/internal/multigrid"
	"graphspar/internal/partition"
	"graphspar/internal/pcg"
	"graphspar/internal/vecmath"
)

const (
	probeReps   = 3  // repetitions of a millisecond-scale probe
	microReps   = 20 // samples of a microsecond-scale probe, each a burst of microBurst calls
	microBurst  = 10
	probeVerify = 30 // Lanczos depth of the verify probe: the facade's default certificate depth
)

// timeMedian runs f reps times and returns the median duration in µs.
func timeMedian(reps int, f func()) float64 {
	v := make([]float64, reps)
	for i := range v {
		t0 := time.Now()
		f()
		v[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	return median(v)
}

// timeMicro times bursts of a microsecond-scale call and returns the
// median per-call µs.
func timeMicro(f func()) float64 {
	return timeMedian(microReps, func() {
		for i := 0; i < microBurst; i++ {
			f()
		}
	}) / microBurst
}

// probeLayers calls each layer's public functions on the run's real final
// (G, P) and records their cost and counts. It runs after the traced ops,
// from outside the program; nothing here feeds an end-to-end metric.
func probeLayers(ctx context.Context, pr pair, regenerate func() error, seed uint64, m map[string]float64) error {
	g, p := pr.g, pr.p
	n := g.N()
	var err error
	note := func(e error) {
		if err == nil {
			err = e
		}
	}

	m["gen.build_ms"] = timeMedian(probeReps, func() { note(regenerate()) }) / 1e3

	x, y := rhs(n, seed+1), make([]float64, n)
	m["graph.lapmulvec_us"] = timeMicro(func() { g.LapMulVec(y, x) })
	// Computed, not counted: the edge stream (24 B/edge), x read once, y
	// zeroed and written. Cache misses on the scattered x/y accesses are
	// not in it.
	lapBytes := float64(24*g.M() + 24*n)
	m["graph.lapmulvec_gbps_computed"] = lapBytes / (m["graph.lapmulvec_us"] * 1e3)
	var sink float64
	m["vecmath.dot_us"] = timeMicro(func() { sink += vecmath.Dot(x, y) })
	_ = sink

	t, treeIDs, offIDs, e := lsst.Extract(g, lsst.MaxWeight, sparsifierSeed)
	if e != nil {
		return fmt.Errorf("probe lsst: %w", e)
	}
	m["lsst.extract_ms"] = timeMedian(probeReps, func() {
		_, _, _, e := lsst.Extract(g, lsst.MaxWeight, sparsifierSeed)
		note(e)
	}) / 1e3
	m["tree.solve_us"] = timeMicro(func() { t.Solve(y, x) })

	ls, e := cholesky.NewLapSolver(p)
	if e != nil {
		return fmt.Errorf("probe cholesky: %w", e)
	}
	m["cholesky.factor_ms"] = timeMedian(probeReps, func() {
		_, e := cholesky.NewLapSolver(p)
		note(e)
	}) / 1e3
	m["cholesky.factor_nnz"] = float64(ls.FactorNNZ())
	m["cholesky.solve_us"] = timeMicro(func() { ls.Solve(y, x) })
	// Rank-1 update then downdate of a kept edge, on a private factor so
	// ls stays exact for the probes below.
	upd, e := cholesky.NewLapSolver(p)
	if e != nil {
		return fmt.Errorf("probe cholesky: %w", e)
	}
	ke := p.Edge(p.M() / 2)
	m["cholesky.apply_edge_us"] = timeMicro(func() {
		note(upd.ApplyEdge(ke.U, ke.V, ke.W/2))
		note(upd.ApplyEdge(ke.U, ke.V, -ke.W/2))
	}) / 2

	opt := core.Options{SigmaSq: sigma2, Seed: sparsifierSeed, EmbedWorkers: workers}
	t0 := time.Now()
	res, e := core.SparsifyCtx(ctx, g, opt)
	if e != nil {
		return fmt.Errorf("probe core.SparsifyCtx: %w", e)
	}
	m["core.sparsify_ms"] = ms(time.Since(t0))
	m["core.rounds"] = float64(len(res.Rounds))
	m["core.offtree_added"] = float64(len(res.OffTreeAddedIDs))
	m["lsst.total_stretch"] = res.TotalStretch
	et, er, _, _ := opt.EffectiveEmbed(n)
	m["core.embed_ms"] = timeMedian(probeReps, func() { core.EmbedOffTree(g, t, offIDs, et, er, sparsifierSeed) }) / 1e3

	m["core.verify_ms"] = timeMedian(probeReps, func() {
		fresh, e := cholesky.NewLapSolver(p)
		if e != nil {
			note(e)
			return
		}
		_, _, _, e = core.VerifySimilarity(g, p, fresh, probeVerify, seed+2)
		note(e)
	}) / 1e3
	m["eig.lanczos_ms"] = timeMedian(probeReps, func() {
		_, e := eig.GeneralizedLanczos(g, p, ls, probeVerify, seed+2)
		note(e)
	}) / 1e3

	t0 = time.Now()
	if _, _, _, _, _, e := core.Refilter(ctx, g, treeIDs, offIDs, opt, 4, workers, sparsifierSeed); e != nil {
		return fmt.Errorf("probe core.Refilter: %w", e)
	}
	m["core.refilter_ms"] = ms(time.Since(t0))

	b := rhs(n, seed+3)
	var iters int
	m["pcg.solve_ms"] = timeMedian(probeReps, func() {
		it, e := solve(g, &pcg.CholPrecond{S: ls}, b)
		iters = it
		note(e)
	}) / 1e3
	m["pcg.iters"] = float64(iters)
	// The plain baseline: the backbone tree alone as preconditioner.
	it, e := solve(g, pcg.TreePrecond{T: t}, b)
	if e != nil {
		return fmt.Errorf("probe pcg tree baseline: %w", e)
	}
	m["pcg.iters_tree"] = float64(it)

	var kw *partition.KWayResult
	m["partition.kway_ms"] = timeMedian(probeReps, func() {
		r, e := partition.RecursiveBisect(g, 4, partition.Options{Method: partition.BFS, Seed: sparsifierSeed})
		kw = r
		note(e)
	}) / 1e3
	if kw != nil {
		m["partition.cut_share"] = kw.CutWeight / g.TotalWeight()
	}
	m["multigrid.aggregate_ms"] = timeMedian(probeReps, func() { multigrid.AggregateGraph(g) }) / 1e3

	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("probe %s: not a finite number", k)
		}
	}
	return err
}
