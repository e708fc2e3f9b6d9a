// Package graphspar_test hosts the benchmark harness: one benchmark per
// table and figure of the paper (regenerating the corresponding rows via
// internal/exp) plus the ablation benches A1, A2, A4 and A5.
// Benchmarks report qualitative metrics (achieved σ², edges kept, PCG
// iterations) through b.ReportMetric so `go test -bench` output doubles as
// an experiment log.
package graphspar_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"graphspar"
	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/eig"
	"graphspar/internal/exp"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/lsst"
	"graphspar/internal/pcg"
	"graphspar/internal/resistance"
	"graphspar/internal/vecmath"
)

// benchScale keeps the full -bench=. run in CI time; cmd/experiments runs
// bigger instances.
const benchScale = 0.12

// ------------------------------------------------------------ paper tables

func BenchmarkTable1EigEstimation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table1(benchScale, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		var maxMinErr, maxMaxErr float64
		for _, r := range rows {
			if r.LMinRelErr > maxMinErr {
				maxMinErr = r.LMinRelErr
			}
			if r.LMaxRelErr > maxMaxErr {
				maxMaxErr = r.LMaxRelErr
			}
		}
		b.ReportMetric(100*maxMinErr, "max-λmin-err-%")
		b.ReportMetric(100*maxMaxErr, "max-λmax-err-%")
	}
}

func BenchmarkTable2PCG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table2(benchScale, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		var n50, n200, dens50 float64
		for _, r := range rows {
			n50 += float64(r.Iters50)
			n200 += float64(r.Iters200)
			dens50 += r.Density50
		}
		k := float64(len(rows))
		b.ReportMetric(n50/k, "avg-N50")
		b.ReportMetric(n200/k, "avg-N200")
		b.ReportMetric(dens50/k, "avg-density50")
	}
}

func BenchmarkTable3Partition(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table3(benchScale, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		var worstErr, memRatio float64
		for _, r := range rows {
			if r.RelErr > worstErr {
				worstErr = r.RelErr
			}
			memRatio += float64(r.DirectMem) / float64(r.IterativeMem)
		}
		b.ReportMetric(worstErr, "worst-sign-err")
		b.ReportMetric(memRatio/float64(len(rows)), "avg-MD/MI")
	}
}

func BenchmarkTable4Networks(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table4(benchScale, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		var red, lam float64
		for _, r := range rows {
			red += r.EdgeReduction
			lam += r.LambdaReduce
		}
		k := float64(len(rows))
		b.ReportMetric(red/k, "avg-edge-reduction-x")
		b.ReportMetric(lam/k, "avg-λ1-reduction-x")
	}
}

func BenchmarkFig1Drawing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig1(benchScale*2, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Correlation, "layout-correlation")
	}
}

func BenchmarkFig2HeatSpectrum(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		series, err := exp.Fig2(benchScale, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(series[0].AboveTh["sigma2=100"]), "edges-above-θ100")
	}
}

// --------------------------------------------------------------- ablations

func ablationGraph(b *testing.B, seed uint64) *graph.Graph {
	b.Helper()
	g, err := gen.Grid2D(48, 48, gen.UniformWeights, seed)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func sparsifyMetrics(b *testing.B, g *graph.Graph, opt core.Options) *core.Result {
	b.Helper()
	res, err := core.Sparsify(g, opt)
	if err != nil && !errors.Is(err, core.ErrNoTarget) {
		b.Fatal(err)
	}
	return res
}

// A1: power-iteration depth t — the paper says t = 2 suffices.
func BenchmarkAblationPowerSteps(b *testing.B) {
	for _, t := range []int{1, 2, 3} {
		b.Run(map[int]string{1: "t=1", 2: "t=2", 3: "t=3"}[t], func(b *testing.B) {
			g := ablationGraph(b, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := sparsifyMetrics(b, g, core.Options{SigmaSq: 80, T: t, Seed: uint64(i + 1)})
				b.ReportMetric(float64(res.Sparsifier.M()), "edges")
				b.ReportMetric(res.SigmaSqAchieved, "σ²-achieved")
			}
		})
	}
}

// A2: number of random probe vectors r.
func BenchmarkAblationRandomVectors(b *testing.B) {
	for _, r := range []int{1, 6, 12} {
		name := map[int]string{1: "r=1", 6: "r=logn", 12: "r=2logn"}[r]
		b.Run(name, func(b *testing.B) {
			g := ablationGraph(b, 2)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := sparsifyMetrics(b, g, core.Options{SigmaSq: 80, NumVectors: r, Seed: uint64(i + 1)})
				b.ReportMetric(float64(res.Sparsifier.M()), "edges")
				b.ReportMetric(res.SigmaSqAchieved, "σ²-achieved")
			}
		})
	}
}

// A4: similarity check on/off.
func BenchmarkAblationSimilarityCheck(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			g := ablationGraph(b, 4)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := sparsifyMetrics(b, g, core.Options{SigmaSq: 80, DisableSimilarity: disable, Seed: uint64(i + 1)})
				b.ReportMetric(float64(res.Sparsifier.M()), "edges")
				b.ReportMetric(res.SigmaSqAchieved, "σ²-achieved")
			}
		})
	}
}

// A5: condition number vs baselines at an equal *final* edge budget.
// Lower κ at the same edge count means a better sparsifier. The workload
// has heterogeneous (log-uniform) weights so leverage scores are
// non-trivial; resistances for the SS baseline are exact.
func BenchmarkAblationBaselines(b *testing.B) {
	g, err := gen.TriMesh(36, 36, gen.LogUniform, 5)
	if err != nil {
		b.Fatal(err)
	}
	// Our sparsifier fixes the budget.
	ours := sparsifyMetrics(b, g, core.Options{SigmaSq: 80, Seed: 1})
	budgetEdges := ours.Sparsifier.M()
	_, treeIDs, _, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		b.Fatal(err)
	}

	condOf := func(b *testing.B, p *graph.Graph) float64 {
		b.Helper()
		solver := &eig.PCGSolver{G: p, M: pcg.NewJacobi(p), Tol: 1e-8, MaxIter: 4 * p.N()}
		lmax, err := core.EstimateLambdaMax(g, p, solver, 30, 7)
		if err != nil {
			b.Fatal(err)
		}
		return lmax / core.EstimateLambdaMin(g, p)
	}

	// sampleToBudget binary-searches the draw count so the *final* edge
	// count (unique draws ∪ backbone) matches budgetEdges within 2%.
	sampleToBudget := func(b *testing.B, mk func(q int, seed uint64) (*graph.Graph, error), seed uint64) *graph.Graph {
		b.Helper()
		lo, hi := budgetEdges/8, budgetEdges*64
		var best *graph.Graph
		for iter := 0; iter < 40 && lo < hi; iter++ {
			mid := (lo + hi) / 2
			sp, err := mk(mid, seed)
			if err != nil {
				b.Fatal(err)
			}
			best = sp
			diff := sp.M() - budgetEdges
			if diff < 0 {
				diff = -diff
			}
			if diff*50 <= budgetEdges {
				return sp
			}
			if sp.M() < budgetEdges {
				lo = mid + 1
			} else {
				hi = mid - 1
			}
		}
		return best
	}

	b.Run("similarity-aware", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := sparsifyMetrics(b, g, core.Options{SigmaSq: 80, Seed: uint64(i + 1)})
			b.ReportMetric(float64(res.Sparsifier.M()), "edges")
			b.ReportMetric(res.SigmaSqAchieved, "κ-est")
		}
	})
	b.Run("effective-resistance", func(b *testing.B) {
		ls, err := cholesky.NewLapSolver(g)
		if err != nil {
			b.Fatal(err)
		}
		rs, err := resistance.AllEdgesExact(g, ls)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			sp := sampleToBudget(b, func(q int, seed uint64) (*graph.Graph, error) {
				return resistance.SpielmanSrivastava(g, rs, resistance.SampleOptions{
					Samples: q, Seed: seed, Backbone: treeIDs,
				})
			}, uint64(i+1))
			b.ReportMetric(float64(sp.M()), "edges")
			b.ReportMetric(condOf(b, sp), "κ-est")
		}
	})
	b.Run("uniform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sp := sampleToBudget(b, func(q int, seed uint64) (*graph.Graph, error) {
				return resistance.UniformSample(g, resistance.SampleOptions{
					Samples: q, Seed: seed, Backbone: treeIDs,
				})
			}, uint64(i+1))
			b.ReportMetric(float64(sp.M()), "edges")
			b.ReportMetric(condOf(b, sp), "κ-est")
		}
	})
}

// ------------------------------------------------ sharded engine benchmark

// shardedRef is the lazily measured single-shot reference for one bench
// graph: plain core.Sparsify wall time and the independently verified κ.
type shardedRef struct {
	once sync.Once
	dur  time.Duration
	cond float64
}

var shardedRefs sync.Map // graph name → *shardedRef

func shardedReference(b *testing.B, name string, g *graph.Graph) *shardedRef {
	b.Helper()
	v, _ := shardedRefs.LoadOrStore(name, &shardedRef{})
	ref := v.(*shardedRef)
	ref.once.Do(func() {
		t0 := time.Now()
		res, err := core.Sparsify(g, core.Options{SigmaSq: 100, Seed: 1})
		if err != nil && !errors.Is(err, core.ErrNoTarget) {
			b.Fatal(err)
		}
		ref.dur = time.Since(t0)
		solver, err := cholesky.NewLapSolver(res.Sparsifier)
		if err != nil {
			b.Fatal(err)
		}
		_, _, cond, err := core.VerifySimilarity(g, res.Sparsifier, solver, 30, 1)
		if err != nil {
			b.Fatal(err)
		}
		ref.cond = cond
	})
	return ref
}

// benchRun is one Sparsifier.Run through the batch pipeline's one entry
// point; a missed target is a result, not a benchmark failure.
func benchRun(b *testing.B, g *graph.Graph, opts ...graphspar.Option) *graphspar.Result {
	b.Helper()
	s, err := graphspar.New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	res, err := s.Run(context.Background(), g)
	if err != nil && !errors.Is(err, graphspar.ErrNoTarget) {
		b.Fatal(err)
	}
	return res
}

// BenchmarkShardedSparsify compares the shard-parallel engine at 1/2/4/8
// shards against single-shot core.Sparsify on a 256×256 grid (the
// mesh-like regime sharding targets) and an SBM community graph (whose
// big BFS cut stresses the global re-filter). Reported metrics:
// compute-s excludes the engine's verification phase (the single-shot
// baseline does not verify), speedup-vs-single = T(single core.Sparsify)
// / compute, and κ-ratio = verified κ / single-shot verified κ — the
// acceptance bar is speedup ≥ 1.5 at 4 shards with κ-ratio ≤ 2 on the
// grid. The shard phase parallelizes across cores, so speedup scales
// with GOMAXPROCS; on a single core only the shards' smaller superlinear
// costs (fill-reducing ordering, factorization) remain and the ratio
// hovers near 1.
func BenchmarkShardedSparsify(b *testing.B) {
	graphs := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"grid256", func() (*graph.Graph, error) { return gen.Grid2D(256, 256, gen.UniformWeights, 1) }},
		{"sbm", func() (*graph.Graph, error) {
			g, _, err := gen.SBM(8, 256, 0.04, 0.001, 2)
			return g, err
		}},
	}
	for _, gc := range graphs {
		g, err := gc.build()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(gc.name+"/single", func(b *testing.B) {
			ref := shardedReference(b, gc.name, g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Sparsify(g, core.Options{SigmaSq: 100, Seed: 1})
				if err != nil && !errors.Is(err, core.ErrNoTarget) {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Sparsifier.M()), "edges")
			}
			b.ReportMetric(ref.cond, "verified-κ")
		})
		for _, shards := range []int{1, 2, 4, 8} {
			name := map[int]string{1: "shards=1", 2: "shards=2", 4: "shards=4", 8: "shards=8"}[shards]
			b.Run(gc.name+"/"+name, func(b *testing.B) {
				ref := shardedReference(b, gc.name, g)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := benchRun(b, g, graphspar.WithSigma2(100), graphspar.WithSeed(1),
						graphspar.WithShards(shards), graphspar.WithVerification(0))
					compute := res.Timings.Sparsify
					b.ReportMetric(compute.Seconds(), "compute-s")
					b.ReportMetric(float64(ref.dur)/float64(compute), "speedup-vs-single")
					b.ReportMetric(res.VerifiedCond, "verified-κ")
					b.ReportMetric(res.VerifiedCond/ref.cond, "κ-ratio")
					b.ReportMetric(res.Speedup(), "shard-parallelism")
					b.ReportMetric(float64(res.Sparsifier.M()), "edges")
				}
			})
		}
	}
}

// --------------------------------------------- multilevel engine benchmark

// multilevelBench accumulates sub-benchmark metrics for the
// BENCH_multilevel.json artifact (written when BENCH_MULTILEVEL_JSON
// names a path, the way CI's bench smoke step does).
var (
	multilevelBenchMu      sync.Mutex
	multilevelBenchResults = map[string]map[string]float64{}
)

func publishMultilevelBench(b *testing.B, name string, metrics map[string]float64) {
	b.Helper()
	multilevelBenchMu.Lock()
	defer multilevelBenchMu.Unlock()
	multilevelBenchResults[name] = metrics
	path := os.Getenv("BENCH_MULTILEVEL_JSON")
	if path == "" {
		return
	}
	out := map[string]any{
		"benchmark": "BenchmarkMultilevel",
		"graph":     "sbm4x2048",
		"sigma2":    float64(multilevelBenchSigma),
		"results":   multilevelBenchResults,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

const multilevelBenchSigma = 100

// multilevelBenchState shares the benchmark graph across arms and lets
// the multilevel arm compare against whatever the sharded arm measured
// (the arms run in declaration order; each engine runs only in its own
// arm, because a full run takes minutes at this size).
var multilevelBenchState struct {
	once     sync.Once
	g        *graph.Graph
	buildErr error
	shardDur time.Duration
	cond     float64
}

func multilevelBenchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	s := &multilevelBenchState
	s.once.Do(func() {
		// 4 communities of 2048 vertices: ≈545k edges (4.2× grid256's
		// 130,560), with a BFS-bisect cut of ≈399k edges (73%) — the
		// cut-heavy regime where the flat engine's global re-filter must
		// re-densify most of the graph at full size.
		s.g, _, s.buildErr = gen.SBM(4, 2048, 0.04, 0.008, 3)
	})
	if s.buildErr != nil {
		b.Fatal(s.buildErr)
	}
	return s.g
}

// BenchmarkMultilevel races the coarsen → sparsify-coarse → interpolate →
// refilter hierarchy against the flat 4-shard engine on a cut-heavy SBM
// (≈545k edges, 4.2× grid256). Both paths end with a generalized-Lanczos
// certificate on the original fine graph; compute-s excludes that shared
// verification. The acceptance bar is speedup-vs-sharded ≥ 1 (multilevel
// no slower than flat sharding) with κ-ratio ≤ 2; measured single-core
// the hierarchy wins both axes at once (≈5× compute, ≈9× tighter κ),
// because coarsening sidesteps the bisector's enormous cut instead of
// re-filtering across it.
func BenchmarkMultilevel(b *testing.B) {
	b.Run("sharded=4", func(b *testing.B) {
		g := multilevelBenchGraph(b)
		s := &multilevelBenchState
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := benchRun(b, g, graphspar.WithSigma2(multilevelBenchSigma), graphspar.WithSeed(1),
				graphspar.WithShards(4))
			compute := res.Timings.Sparsify
			s.shardDur, s.cond = compute, res.VerifiedCond
			b.ReportMetric(compute.Seconds(), "compute-s")
			b.ReportMetric(res.VerifiedCond, "verified-κ")
			b.ReportMetric(float64(res.Sparsifier.M()), "edges")
			publishMultilevelBench(b, "sharded=4", map[string]float64{
				"compute_s":  compute.Seconds(),
				"verified_k": res.VerifiedCond,
				"edges":      float64(res.Sparsifier.M()),
			})
		}
	})
	b.Run("multilevel", func(b *testing.B) {
		g := multilevelBenchGraph(b)
		s := &multilevelBenchState
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := benchRun(b, g, graphspar.WithSigma2(multilevelBenchSigma), graphspar.WithSeed(1),
				graphspar.WithMode(graphspar.ModeMultilevel))
			if res.VerifiedCond <= 0 {
				b.Fatal("missing fine-graph Lanczos certificate")
			}
			compute := res.Timings.Sparsify
			b.ReportMetric(compute.Seconds(), "compute-s")
			b.ReportMetric(float64(res.CoarsenDepth), "levels")
			b.ReportMetric(res.VerifiedCond, "verified-κ")
			b.ReportMetric(float64(res.Sparsifier.M()), "edges")
			metrics := map[string]float64{
				"compute_s":  compute.Seconds(),
				"levels":     float64(res.CoarsenDepth),
				"verified_k": res.VerifiedCond,
				"edges":      float64(res.Sparsifier.M()),
			}
			// Comparison metrics only when the sharded arm ran this process.
			if s.shardDur > 0 {
				b.ReportMetric(float64(s.shardDur)/float64(compute), "speedup-vs-sharded")
				b.ReportMetric(res.VerifiedCond/s.cond, "κ-ratio")
				metrics["speedup_vs_sharded"] = float64(s.shardDur) / float64(compute)
				metrics["k_ratio"] = res.VerifiedCond / s.cond
			}
			publishMultilevelBench(b, "multilevel", metrics)
		}
	})
}

// ------------------------------------------------- end-to-end sanity bench

// BenchmarkEndToEndPreconditioning measures the full pipeline the library
// exists for: sparsify once, then repeatedly solve (the multiple-RHS PCG
// scenario of §1).
func BenchmarkEndToEndPreconditioning(b *testing.B) {
	g, err := gen.Grid2D(64, 64, gen.UniformWeights, 1)
	if err != nil {
		b.Fatal(err)
	}
	res := sparsifyMetrics(b, g, core.Options{SigmaSq: 100, Seed: 1})
	m, err := pcg.NewCholPrecond(res.Sparsifier)
	if err != nil {
		b.Fatal(err)
	}
	n := g.N()
	rhs := make([]float64, n)
	vecmath.NewRNG(3).FillNormal(rhs)
	vecmath.Deflate(rhs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, n)
		r, err := pcg.SolveLaplacian(g, m, x, append([]float64(nil), rhs...), 1e-6, 10*n)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Iterations), "pcg-iters")
	}
}
