package cholesky_test

// Differential tests and benchmarks over the matrices the product
// actually factors: reduced Laplacians of σ²-sparsifiers. They sparsify
// through internal/core, which imports this package, hence the external
// test package.

import (
	"reflect"
	"testing"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
)

func sparsifierOf(tb testing.TB, g *graph.Graph, sigmaSq float64) *graph.Graph {
	tb.Helper()
	res, err := core.Sparsify(g, core.Options{SigmaSq: sigmaSq, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Sparsifier
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// goldenGraphs are the pipeline golden's three inputs.
func goldenGraphs(t *testing.T) []namedGraph {
	t.Helper()
	grid, err := gen.Grid2D(48, 48, gen.UniformWeights, 9)
	if err != nil {
		t.Fatal(err)
	}
	sbm, _, err := gen.SBM(4, 128, 0.15, 0.02, 13)
	if err != nil {
		t.Fatal(err)
	}
	barbell, err := gen.Barbell(24, 12, gen.UniformWeights, 5)
	if err != nil {
		t.Fatal(err)
	}
	return []namedGraph{{"grid48", grid}, {"sbm4x128", sbm}, {"barbell", barbell}}
}

// The pipeline golden's three graphs at its σ² = 50: the orderings of
// their sparsifiers' reduced Laplacians are what every golden byte
// downstream depends on.
func TestMinDegreeMatchesReferenceOnPipelineSparsifiers(t *testing.T) {
	for _, c := range goldenGraphs(t) {
		for _, p := range []*graph.Graph{c.g, sparsifierOf(t, c.g, 50)} {
			red := cholesky.ReducedLaplacianCSR(p)
			want := cholesky.MinDegreeRef(red)
			if got := cholesky.MinDegree(red); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (m=%d): MinDegree differs from reference", c.name, p.M())
			}
		}
	}
}

// The fill of MinDegree's order on the pipeline golden's three
// sparsifiers and the two the benchmarks factor may not exceed 1.05× the
// fill of the order it replaced (a lazy binary heap whose stale entries
// were re-pushed), counted with SymbolicFactorNNZ; heapFill holds that
// order's counts, measured with the heap kernel.
func TestMinDegreeFillNoWorse(t *testing.T) {
	heapFill := map[string]int{
		"grid48": 9536, "sbm4x128": 15546, "barbell": 185,
		"grid192": 212875, "sbm4x512": 179346,
	}
	check := func(name string, p *graph.Graph) {
		nnz, err := cholesky.SymbolicFactorNNZ(p, cholesky.MinDegree(cholesky.ReducedLaplacianCSR(p)))
		if err != nil {
			t.Fatal(err)
		}
		if limit := heapFill[name] * 105 / 100; nnz > limit {
			t.Errorf("%s: nnz(L) %d > %d (1.05× the heap order's %d)", name, nnz, limit, heapFill[name])
		}
	}
	for _, c := range goldenGraphs(t) {
		check(c.name, sparsifierOf(t, c.g, 50))
	}
	if testing.Short() {
		return
	}
	for _, c := range benchSparsifiers(t) {
		check(c.name, c.p)
	}
}

// The same three sparsifiers, and the two the benchmarks factor, through
// the run-aware kernels and the scalar oracle: factor, solves and rank-1
// updates bit for bit.
func TestKernelsMatchReferenceOnSparsifiers(t *testing.T) {
	for _, c := range goldenGraphs(t) {
		cholesky.CheckKernels(t, c.name, sparsifierOf(t, c.g, 50))
	}
	if testing.Short() {
		return
	}
	for _, c := range benchSparsifiers(t) {
		cholesky.CheckKernels(t, c.name, c.p)
	}
}

// benchSparsifiers are the σ² = 100 sparsifiers of the two graph families
// the batch benchmark workloads run on (cmd/bench's mesh_solve and
// sbm_multilevel inputs).
func benchSparsifiers(b testing.TB) []struct {
	name string
	p    *graph.Graph
} {
	b.Helper()
	grid, err := gen.Grid2D(192, 192, gen.UniformWeights, 1)
	if err != nil {
		b.Fatal(err)
	}
	sbm, _, err := gen.SBM(4, 512, 0.04, 0.008, 1)
	if err != nil {
		b.Fatal(err)
	}
	return []struct {
		name string
		p    *graph.Graph
	}{
		{"grid192", sparsifierOf(b, grid, 100)},
		{"sbm4x512", sparsifierOf(b, sbm, 100)},
	}
}

var benchSink int

// BenchmarkMinDegree times the ordering and reports the symbolic nnz(L)
// of the order it returns, so fill prints next to time.
func BenchmarkMinDegree(b *testing.B) {
	for _, c := range benchSparsifiers(b) {
		b.Run(c.name, func(b *testing.B) {
			red := cholesky.ReducedLaplacianCSR(c.p)
			var perm []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				perm = cholesky.MinDegree(red)
			}
			b.StopTimer()
			nnz, err := cholesky.SymbolicFactorNNZ(c.p, perm)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(nnz), "nnz(L)")
		})
	}
}

func BenchmarkPermute(b *testing.B) {
	for _, c := range benchSparsifiers(b) {
		b.Run(c.name, func(b *testing.B) {
			red := cholesky.ReducedLaplacianCSR(c.p)
			perm := cholesky.MinDegree(red)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ap, err := red.Permute(perm)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += ap.NNZ()
			}
		})
	}
}

func BenchmarkLapSolverFactorSparsifier(b *testing.B) {
	for _, c := range benchSparsifiers(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ls, err := cholesky.NewLapSolver(c.p)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += ls.FactorNNZ()
			}
		})
	}
}

// BenchmarkFactorNumeric is the factorization with the ordering taken
// out: symbolic + numeric passes of FactorCSR under a fixed
// minimum-degree order. run_share is the fraction of nnz(L) the kernels
// walk as slices instead of gathering.
func BenchmarkFactorNumeric(b *testing.B) {
	for _, c := range benchSparsifiers(b) {
		b.Run(c.name, func(b *testing.B) {
			red := cholesky.ReducedLaplacianCSR(c.p)
			perm := cholesky.MinDegree(red)
			var share float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := cholesky.FactorCSR(red, perm)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += f.NNZ()
				share = f.RunShare()
			}
			b.ReportMetric(share, "run_share")
		})
	}
}

func BenchmarkFactorSolve(b *testing.B) {
	for _, c := range benchSparsifiers(b) {
		b.Run(c.name, func(b *testing.B) {
			ls, err := cholesky.NewLapSolver(c.p)
			if err != nil {
				b.Fatal(err)
			}
			rhs := make([]float64, c.p.N())
			for i := range rhs {
				rhs[i] = float64(i%7) - 3
			}
			x := make([]float64, len(rhs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ls.Solve(x, rhs)
			}
			b.ReportMetric(ls.RunShare(), "run_share")
		})
	}
}
