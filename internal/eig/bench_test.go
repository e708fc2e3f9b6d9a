package eig_test

// The certificate's Lanczos layer against the loop it replaced, on the
// matrices the product certifies: σ² = 100 sparsifiers of grids. It
// sparsifies through internal/core, which imports this package, hence
// the external test package.

import (
	"fmt"
	"testing"
	"time"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/eig"
	"graphspar/internal/gen"
)

// BenchmarkGeneralizedLanczos times GeneralizedLanczos and the old
// L_P-inner-product loop on the same pencil, factor and seed, alternating
// within each iteration, and reports both per-run times and their ratio
// (ref/new > 1 means the factor-coordinate loop is faster).
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
			var loop, ref time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, err := eig.GeneralizedLanczos(g, p, ls, c.k, uint64(i)); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				if _, err := eig.GeneralizedLanczosRef(g, p, ls, c.k, uint64(i)); err != nil {
					b.Fatal(err)
				}
				loop += t1.Sub(t0)
				ref += time.Since(t1)
			}
			b.ReportMetric(float64(loop.Microseconds())/1e3/float64(b.N), "ms/run")
			b.ReportMetric(float64(ref.Microseconds())/1e3/float64(b.N), "ref_ms/run")
			b.ReportMetric(float64(ref)/float64(loop), "ref/new")
		})
	}
}
