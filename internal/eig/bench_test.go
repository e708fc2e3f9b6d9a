package eig_test

// The certificate's Lanczos layer against the loop it replaced, on the
// matrices the product certifies: σ² = 100 sparsifiers of grids. It
// sparsifies through internal/core, which imports this package, hence
// the external test package.

import (
	"fmt"
	"testing"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/eig"
	"graphspar/internal/gen"
)

// BenchmarkGeneralizedLanczos times GeneralizedLanczos ("new") and the old
// L_P-inner-product loop ("ref") on the same pencil, factor and seeds, each
// in its own sub-benchmark, so -benchmem reports each loop's own B/op.
// ref also reports ref/new, its time per run over new's just before it
// (> 1 means the factor-coordinate loop is faster).
func BenchmarkGeneralizedLanczos(b *testing.B) {
	for _, c := range []struct{ side, k int }{{32, 30}, {128, 12}} {
		b.Run(fmt.Sprintf("grid%d/k=%d", c.side, c.k), func(b *testing.B) {
			g, err := gen.Grid2D(c.side, c.side, gen.UniformWeights, 1)
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.Sparsify(g, core.Options{SigmaSq: 100, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			p := res.Sparsifier
			ls, err := cholesky.NewLapSolver(p)
			if err != nil {
				b.Fatal(err)
			}
			var newPerRun float64 // ns per run of the last "new" pass
			for _, loop := range []struct {
				name string
				run  func(seed uint64) ([]float64, error)
			}{
				{"new", func(seed uint64) ([]float64, error) { return eig.GeneralizedLanczos(g, p, ls, c.k, seed) }},
				{"ref", func(seed uint64) ([]float64, error) { return eig.GeneralizedLanczosRef(g, p, ls, c.k, seed) }},
			} {
				b.Run(loop.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := range b.N {
						if _, err := loop.run(uint64(i)); err != nil {
							b.Fatal(err)
						}
					}
					perRun := float64(b.Elapsed()) / float64(b.N)
					if loop.name == "new" {
						newPerRun = perRun
					} else {
						b.ReportMetric(perRun/newPerRun, "ref/new")
					}
				})
			}
		})
	}
}
