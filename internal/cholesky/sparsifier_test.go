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

// The pipeline golden's three graphs at its σ² = 50: the orderings of
// their sparsifiers' reduced Laplacians are what every golden byte
// downstream depends on.
func TestMinDegreeMatchesReferenceOnPipelineSparsifiers(t *testing.T) {
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
	ws := cholesky.NewWorkspace()
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"grid48", grid}, {"sbm4x128", sbm}, {"barbell", barbell}} {
		for _, p := range []*graph.Graph{c.g, sparsifierOf(t, c.g, 50)} {
			red := cholesky.ReducedLaplacianCSR(p, ws)
			want := cholesky.MinDegreeRef(red)
			if got := cholesky.MinDegree(red); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (m=%d): MinDegree differs from reference", c.name, p.M())
			}
		}
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

func BenchmarkMinDegree(b *testing.B) {
	for _, c := range benchSparsifiers(b) {
		b.Run(c.name, func(b *testing.B) {
			red := cholesky.ReducedLaplacianCSR(c.p, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += len(cholesky.MinDegree(red))
			}
		})
	}
}

func BenchmarkPermute(b *testing.B) {
	for _, c := range benchSparsifiers(b) {
		b.Run(c.name, func(b *testing.B) {
			red := cholesky.ReducedLaplacianCSR(c.p, nil)
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
			ws := cholesky.NewWorkspace()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ls, err := cholesky.NewLapSolverWS(c.p, ws)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += ls.FactorNNZ()
			}
		})
	}
}
