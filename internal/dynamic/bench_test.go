package dynamic_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/dynamic"
	"graphspar/internal/engine"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/lsst"
	"graphspar/internal/testkit"
	"graphspar/internal/vecmath"
)

// benchState shares the expensive setup (one full sparsify of grid256 and
// one maintainer build) across the batch-size sub-benchmarks.
type benchState struct {
	once     sync.Once
	g        *graph.Graph
	m        *dynamic.Maintainer
	fullDur  time.Duration // one from-scratch core.Sparsify of the graph
	buildErr error
}

var incBench benchState

const benchSigmaSq = 100

func (s *benchState) setup() {
	s.once.Do(func() {
		g, err := gen.Grid2D(256, 256, gen.UniformWeights, 1)
		if err != nil {
			s.buildErr = err
			return
		}
		s.g = g
		t0 := time.Now()
		if _, err := core.Sparsify(g, core.Options{SigmaSq: benchSigmaSq, Seed: 1}); err != nil &&
			!errors.Is(err, core.ErrNoTarget) {
			s.buildErr = err
			return
		}
		s.fullDur = time.Since(t0)
		s.m, s.buildErr = dynamic.New(context.Background(), g, engine.Options{Sparsify: core.Options{SigmaSq: benchSigmaSq, Seed: 1}})
	})
}

// benchResults accumulates the per-batch-size metrics for the
// BENCH_dynamic.json artifact (written when BENCH_DYNAMIC_JSON names a
// path, e.g. by the CI bench step).
var (
	benchResultsMu sync.Mutex
	benchResults   = map[string]any{}
)

func publishBenchResult(b *testing.B, name string, metrics map[string]float64) {
	b.Helper()
	benchResultsMu.Lock()
	defer benchResultsMu.Unlock()
	benchResults[name] = metrics
	path := os.Getenv("BENCH_DYNAMIC_JSON")
	if path == "" {
		return
	}
	out := map[string]any{
		"benchmark": "dynamic",
		"sigma2":    benchSigmaSq,
		"results":   benchResults,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
}

// localState is one prepared BenchmarkLocalUpdate instance: a graph, a
// synthetic sparsifier (backbone plus every 4th off-tree edge), its
// ND-ordered factor, and the edges the toggle loop perturbs.
type localState struct {
	g, p        *graph.Graph
	ls          *cholesky.LapSolver
	toggles     []graph.Edge
	perUpdateUs float64 // fixed 1000-pair measurement, stable at any -benchtime
	err         error
}

var (
	localStates = map[string]*localState{}
	localPerUs  = map[string]float64{} // per-update µs by case, for the flatness gate
)

func localSetup(name string, keep int, build func() (*graph.Graph, error)) *localState {
	if s, ok := localStates[name]; ok {
		return s
	}
	s := &localState{}
	localStates[name] = s
	s.g, s.err = build()
	if s.err != nil {
		return s
	}
	_, treeIDs, offIDs, err := lsst.Extract(s.g, lsst.MaxWeight, 1)
	if err != nil {
		s.err = err
		return s
	}
	// Backbone plus `keep` off-tree edges. The quantity the flat-cost claim
	// is about is the fill crossing the top of the centroid hierarchy — the
	// etree spine every update path traverses — so the cases hold that
	// crossing load comparable rather than the raw off-tree count: grid
	// chords are local (their fill dies out low in the hierarchy; probing
	// grids 256→1024 at fixed keep shows path fill flat-to-decreasing),
	// while every SBM chord is global and lands on the spine, so the SBM
	// case keeps proportionally fewer. Scaling off-tree edges with n would
	// measure the synthetic sparsifier's density, not the factor locality.
	div := 1
	if keep > 0 && len(offIDs) > keep {
		div = len(offIDs) / keep
	}
	edges := make([]graph.Edge, 0, len(treeIDs)+len(offIDs)/div+1)
	for _, id := range treeIDs {
		edges = append(edges, s.g.Edge(id))
	}
	for i, id := range offIDs {
		if i%div == 0 {
			edges = append(edges, s.g.Edge(id))
		}
	}
	s.p, s.err = graph.New(s.g.N(), edges)
	if s.err != nil {
		return s
	}
	s.ls, s.err = cholesky.NewLapSolverND(s.p)
	if s.err != nil {
		return s
	}
	rng := vecmath.NewRNG(7)
	pe := s.p.Edges()
	for len(s.toggles) < 1024 {
		s.toggles = append(s.toggles, pe[rng.Intn(len(pe))])
	}

	// Untimed solve-consistency check: after 100 net-zero toggle pairs the
	// updated factor must still match a from-scratch factorization to 1e-10.
	for i := 0; i < 100; i++ {
		e := s.toggles[i]
		if err := s.ls.ApplyEdge(e.U, e.V, 0.5*e.W); err != nil {
			s.err = err
			return s
		}
		if err := s.ls.ApplyEdge(e.U, e.V, -0.5*e.W); err != nil {
			s.err = err
			return s
		}
	}
	fresh, err := cholesky.NewLapSolverND(s.p)
	if err != nil {
		s.err = err
		return s
	}
	n := s.p.N()
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	x, y := make([]float64, n), make([]float64, n)
	s.ls.Solve(x, rhs)
	fresh.Solve(y, rhs)
	var diff, scale float64
	for i := range x {
		if d := math.Abs(x[i] - y[i]); d > diff {
			diff = d
		}
		if a := math.Abs(x[i]); a > scale {
			scale = a
		}
	}
	if scale < 1 {
		scale = 1
	}
	if diff/scale > 1e-10 {
		s.err = errors.New("updated factor drifted past 1e-10 from from-scratch solve")
		return s
	}

	// The flat-cost metric comes from a fixed 1000-pair window so it is
	// stable regardless of -benchtime (CI runs 3x).
	const pairs = 1000
	t0 := time.Now()
	for i := 0; i < pairs; i++ {
		e := s.toggles[i%len(s.toggles)]
		if err := s.ls.ApplyEdge(e.U, e.V, 0.5*e.W); err != nil {
			s.err = err
			return s
		}
		if err := s.ls.ApplyEdge(e.U, e.V, -0.5*e.W); err != nil {
			s.err = err
			return s
		}
	}
	s.perUpdateUs = float64(time.Since(t0).Microseconds()) / (2 * pairs)
	return s
}

// BenchmarkLocalUpdate is the flat-cost proof of the incremental path:
// per-edge ApplyEdge (a rank-1 update/downdate along the ND elimination
// tree) is timed on graphs 16–64× the grid256 baseline. The headline
// metric is per-update-µs; with the centroid nested-dissection order the etree path
// an update walks grows like log n, so the cost must stay within 2× from
// grid256 to grid1024 — asserted when BENCH_ASSERT_FLAT is set (the CI
// bench step), alongside the per-batch numbers of
// BenchmarkIncrementalUpdate in BENCH_dynamic.json.
func BenchmarkLocalUpdate(b *testing.B) {
	cases := []struct {
		name  string
		keep  int
		build func() (*graph.Graph, error)
	}{
		{"grid256", 1024, func() (*graph.Graph, error) { return gen.Grid2D(256, 256, gen.UniformWeights, 1) }},
		{"sbm4x8192", 128, func() (*graph.Graph, error) {
			g, _, err := gen.SBM(4, 8192, 0.002, 0.0001, 1)
			return g, err
		}},
		{"grid1024", 1024, func() (*graph.Graph, error) { return gen.Grid2D(1024, 1024, gen.UniformWeights, 1) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s := localSetup(c.name, c.keep, c.build)
			if s.err != nil {
				b.Fatal(s.err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := s.toggles[i%len(s.toggles)]
				if err := s.ls.ApplyEdge(e.U, e.V, 0.5*e.W); err != nil {
					b.Fatal(err)
				}
				if err := s.ls.ApplyEdge(e.U, e.V, -0.5*e.W); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			perUpdateUs := s.perUpdateUs
			localPerUs[c.name] = perUpdateUs

			b.ReportMetric(perUpdateUs, "per-update-µs")
			publishBenchResult(b, "local:"+c.name, map[string]float64{
				"n":             float64(s.g.N()),
				"m":             float64(s.g.M()),
				"sparsifier_m":  float64(s.p.M()),
				"per_update_us": perUpdateUs,
			})

			if c.name != "grid256" && os.Getenv("BENCH_ASSERT_FLAT") != "" {
				base, ok := localPerUs["grid256"]
				if !ok {
					b.Fatal("BENCH_ASSERT_FLAT set but grid256 did not run first")
				}
				if perUpdateUs > 2*base {
					b.Fatalf("per-update cost is not flat: %s %.2fµs > 2 × grid256 %.2fµs",
						c.name, perUpdateUs, base)
				}
			}
		})
	}
}

// BenchmarkIncrementalUpdate measures maintaining a grid256 sparsifier
// under update batches of size 1, 16 and 256 against the cost of a full
// re-sparsification (the pre-dynamic answer to any mutation). Reported
// metrics: batch-ms is the mean Apply wall time, speedup-vs-full is
// T(core.Sparsify) / T(Apply) — the acceptance bar is ≥ 5 for size-1
// batches — and κ confirms the certificate held. Batches that a random
// stream would reject (bridge deletes) are skipped and regenerated, so
// every measured Apply does real maintenance work.
func BenchmarkIncrementalUpdate(b *testing.B) {
	for _, size := range []int{1, 16, 256} {
		name := map[int]string{1: "batch=1", 16: "batch=16", 256: "batch=256"}[size]
		b.Run(name, func(b *testing.B) {
			incBench.setup()
			if incBench.buildErr != nil {
				b.Fatal(incBench.buildErr)
			}
			m := incBench.m
			rng := vecmath.NewRNG(uint64(size) * 977)
			b.ResetTimer()
			var applied int
			var total time.Duration
			for i := 0; i < b.N; i++ {
				batch := testkit.RandomBatch(m.Graph(), rng, size)
				t0 := time.Now()
				err := m.Apply(context.Background(), batch)
				if errors.Is(err, dynamic.ErrWouldDisconnect) {
					continue
				}
				if err != nil {
					b.Fatal(err)
				}
				total += time.Since(t0)
				applied++
			}
			b.StopTimer()
			if applied == 0 {
				b.Skip("no batch applied in this run")
			}
			perApply := total / time.Duration(applied)
			speedup := float64(incBench.fullDur) / float64(perApply)
			b.ReportMetric(float64(perApply.Milliseconds()), "batch-ms")
			b.ReportMetric(speedup, "speedup-vs-full")
			b.ReportMetric(m.Cond(), "κ")
			b.ReportMetric(float64(m.Stats().Rebuilds), "rebuilds")
			// Batch=256 runs settle in batched-verify mode (one Lanczos
			// check per pass instead of one per re-filter round); the
			// verifies/batched_settles metrics track how much certificate
			// work that saves at large batch sizes.
			publishBenchResult(b, name, map[string]float64{
				"batch_size":       float64(size),
				"apply_ms":         float64(perApply.Milliseconds()),
				"full_ms":          float64(incBench.fullDur.Milliseconds()),
				"speedup_vs_full":  speedup,
				"cond":             m.Cond(),
				"rebuilds":         float64(m.Stats().Rebuilds),
				"verifies":         float64(m.Stats().Verifies),
				"batched_settles":  float64(m.Stats().BatchedSettles),
				"factor_updates":   float64(m.Stats().FactorUpdates),
				"factor_downdates": float64(m.Stats().FactorDowndates),
				"factor_rebuilds":  float64(m.Stats().FactorRebuilds),
			})
		})
	}
}
