package eig_test

// The certificate against the fully reorthogonalized loop on sparsifiers
// built by internal/core, which imports this package, hence the external
// test package.

import (
	"fmt"
	"math"
	"testing"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/eig"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
)

// TestCertificateLambdaMaxMatchesReorthogonalized: on the sparsifiers the
// stream certifies — single-shot sparsifiers of gen.SBM(4, 128, 0.15,
// 0.02, s) and gen.Grid2D(22, 22, UniformWeights, s), s = 1–3, at σ² ∈
// {20, 50, 100}, run seed 3 — the certificate's 30-step plain recurrence
// reads λmax within 1e-9 of the fully reorthogonalized loop, on five
// certificate seeds each.
func TestCertificateLambdaMaxMatchesReorthogonalized(t *testing.T) {
	const steps = 30
	for s := uint64(1); s <= 3; s++ {
		sbm, _, err := gen.SBM(4, 128, 0.15, 0.02, s)
		if err != nil {
			t.Fatal(err)
		}
		grid, err := gen.Grid2D(22, 22, gen.UniformWeights, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			g    *graph.Graph
		}{{"sbm4x128", sbm}, {"grid22", grid}} {
			for _, sigmaSq := range []float64{20, 50, 100} {
				res, err := core.Sparsify(c.g, core.Options{SigmaSq: sigmaSq, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				p := res.Sparsifier
				solver, err := cholesky.NewLapSolver(p)
				if err != nil {
					t.Fatal(err)
				}
				for seed := uint64(1); seed <= 5; seed++ {
					row := fmt.Sprintf("%s s=%d σ²=%v seed=%d", c.name, s, sigmaSq, seed)
					got, err := eig.GeneralizedLanczos(c.g, p, solver, steps, seed)
					if err != nil {
						t.Fatalf("%s: %v", row, err)
					}
					ref, err := eig.GeneralizedLanczosRef(c.g, p, solver, steps, seed)
					if err != nil {
						t.Fatalf("%s: reference: %v", row, err)
					}
					top, want := got[len(got)-1], ref[len(ref)-1]
					if d := math.Abs(top - want); d > 1e-9*want {
						t.Errorf("%s: λmax %v, reorthogonalized %v (rel %.2g)", row, top, want, d/want)
					}
				}
			}
		}
	}
}
