package graphspar_test

// Dense referee for the certificate: testkit.ExactCond, the exact
// relative condition number κ(L_G, L_P), computed without any code the
// pipeline uses to produce or certify a sparsifier, against which the
// Lanczos certificate and the TargetMet verdict are checked.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"graphspar"
	"graphspar/internal/gen"
	"graphspar/internal/testkit"
	"graphspar/internal/testkit/fixture"
	"graphspar/internal/testkit/matrix"
)

func TestExactCondSelfChecks(t *testing.T) {
	barbell, err := gen.Barbell(24, 12, gen.UniformWeights, 5)
	if err != nil {
		t.Fatal(err)
	}
	// P = G: every generalized eigenvalue is 1.
	if lmax, lmin, cond, err := testkit.ExactCond(barbell, barbell); err != nil || math.Abs(lmax-1) > 1e-12 || math.Abs(lmin-1) > 1e-12 || math.Abs(cond-1) > 1e-12 {
		t.Fatalf("P = G: λ ∈ [%v, %v], κ = %v, err %v; want 1 to 1e-12", lmin, lmax, cond, err)
	}
	// Against Jacobi on a real sparsifier of the barbell.
	s, err := graphspar.New(graphspar.WithSigma2(goldenSigma2), graphspar.WithSeed(1), graphspar.WithMode(graphspar.ModeSingleShot))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), barbell)
	if err != nil && !errors.Is(err, graphspar.ErrNoTarget) {
		t.Fatal(err)
	}
	lmax, lmin, _, err := testkit.ExactCond(barbell, res.Sparsifier)
	if err != nil {
		t.Fatal(err)
	}
	m, err := fixture.Pencil(barbell, res.Sparsifier)
	if err != nil {
		t.Fatal(err)
	}
	vals, _, err := matrix.JacobiEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	if jmax, jmin := vals[len(vals)-1], vals[0]; math.Abs(jmax-lmax) > 1e-9*jmax || math.Abs(jmin-lmin) > 1e-9*jmin {
		t.Errorf("Householder+TQL2 λ ∈ [%v, %v], Jacobi [%v, %v]", lmin, lmax, jmin, jmax)
	}
	// P a spanning tree of a cycle: λ ∈ {1, n} exactly (L_G = L_P + one
	// rank-one edge whose effective resistance in P is n−1).
	const n = 40
	cycle := make([]graphspar.Edge, n)
	for i := range cycle {
		cycle[i] = graphspar.Edge{U: i, V: (i + 1) % n, W: 1}
	}
	g, err := graphspar.NewGraph(n, cycle)
	if err != nil {
		t.Fatal(err)
	}
	path, err := graphspar.NewGraph(n, cycle[:n-1])
	if err != nil {
		t.Fatal(err)
	}
	if lmax, lmin, _, err := testkit.ExactCond(g, path); err != nil || math.Abs(lmax-n) > 1e-9 || math.Abs(lmin-1) > 1e-12 {
		t.Errorf("cycle vs path: λ ∈ [%v, %v], err %v; want [1, %d]", lmin, lmax, err, n)
	}
	big, err := gen.Grid2D(25, 25, gen.UniformWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := testkit.ExactCond(big, big); err == nil {
		t.Errorf("n = %d above the dense limit was accepted", big.N())
	}
}

// TestCertificateAgainstOracle referees every pipeline-golden row small
// enough for the dense oracle: the Lanczos certificate reports Ritz
// values, which lie inside the spectrum, so it can only under-report κ;
// and a run that says TargetMet must really meet σ².
func TestCertificateAgainstOracle(t *testing.T) {
	ctx := context.Background()
	exact := make(map[string]float64) // sparsifier hash → exact κ
	rows := 0
	for _, gr := range goldenGraphs(t) {
		if gr.g.N() > fixture.MaxN {
			continue
		}
		for _, seed := range []uint64{1, 7} {
			for _, cfg := range goldenConfigs {
				name := fmt.Sprintf("%s/seed%d/%s", gr.name, seed, cfg.name)
				s, err := graphspar.New(append([]graphspar.Option{graphspar.WithSigma2(goldenSigma2), graphspar.WithSeed(seed)}, cfg.opts...)...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				res, err := s.Run(ctx, gr.g)
				if err != nil && !errors.Is(err, graphspar.ErrNoTarget) {
					t.Fatalf("%s: %v", name, err)
				}
				rows++
				h := sparsifierHash(res.Sparsifier)
				k, ok := exact[h]
				if !ok {
					if _, _, k, err = testkit.ExactCond(gr.g, res.Sparsifier); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					exact[h] = k
				}
				if res.VerifiedCond > k*(1+1e-9) {
					t.Errorf("%s: certificate κ %.4f above the exact κ %.4f", name, res.VerifiedCond, k)
				}
				t.Logf("%-32s certificate %8.4f  exact %8.4f  exact/certificate %.4f  met %v", name, res.VerifiedCond, k, k/res.VerifiedCond, res.TargetMet)
				if res.TargetMet && k > goldenSigma2 {
					t.Errorf("%s: TargetMet, but the exact κ is %.4f > σ² %d", name, k, goldenSigma2)
				}
			}
		}
	}
	if rows != 16 {
		t.Errorf("refereed %d golden rows, want 16 (sbm4x128 and barbell × 2 seeds × %d configs)", rows, len(goldenConfigs))
	}
}

// checkVerdict asserts the one rule every plan's TargetMet follows — the
// certificate's verdict, and a certificate always ran — and that Run's
// error agrees with it.
func checkVerdict(t *testing.T, name string, res *graphspar.Result, err error, sigma float64) {
	t.Helper()
	if !(res.VerifiedCond > 0) {
		t.Errorf("%s: no certificate (VerifiedCond %v)", name, res.VerifiedCond)
	}
	if res.TargetMet != (res.VerifiedCond <= sigma) {
		t.Errorf("%s: TargetMet %v, but certified κ %.4f vs σ² %g", name, res.TargetMet, res.VerifiedCond, sigma)
	}
	if errors.Is(err, graphspar.ErrNoTarget) == res.TargetMet {
		t.Errorf("%s: TargetMet %v with error %v", name, res.TargetMet, err)
	}
}

// A single-shot run whose filter-loop estimate clears σ² while the
// certificate does not must calibrate like every other plan, and report
// the certificate's verdict — with no option asking for it: the
// estimate alone (91.5 here) once claimed the target at an exact κ of
// 106.1. The pinned single-shot run and the auto run (single-shot at
// this size) are both checked, and both against the dense oracle.
func TestVerifiedSingleShotVerdict(t *testing.T) {
	g, _, err := gen.SBM(4, 64, 0.15, 0.02, 8)
	if err != nil {
		t.Fatal(err)
	}
	const sigma = 100
	for _, c := range []struct {
		name string
		opts []graphspar.Option
	}{
		{"single", []graphspar.Option{graphspar.WithMode(graphspar.ModeSingleShot)}},
		{"auto", nil},
	} {
		name := "sbm4x64/seed7/" + c.name
		s, err := graphspar.New(append([]graphspar.Option{graphspar.WithSigma2(sigma), graphspar.WithSeed(7)}, c.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background(), g)
		if err != nil && !errors.Is(err, graphspar.ErrNoTarget) {
			t.Fatal(err)
		}
		checkVerdict(t, name, res, err, sigma)
		if _, _, k, err := testkit.ExactCond(g, res.Sparsifier); err != nil || (res.TargetMet && k > sigma) {
			t.Errorf("%s: TargetMet %v, exact κ %.4f (err %v)", name, res.TargetMet, k, err)
		}
	}
}

// The sharded golden row whose global re-filter clears σ² by estimate but
// not by certificate must calibrate until it is certified, and the oracle
// must agree.
func TestShardedGoldenRowCertified(t *testing.T) {
	g, _, err := gen.SBM(4, 128, 0.15, 0.02, 13)
	if err != nil {
		t.Fatal(err)
	}
	s, err := graphspar.New(graphspar.WithSigma2(goldenSigma2), graphspar.WithSeed(1), graphspar.WithMode(graphspar.ModeSharded))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), g)
	if err != nil || !res.TargetMet || res.VerifiedCond > goldenSigma2 {
		t.Fatalf("sbm4x128/seed1/shards4: TargetMet %v, verified κ %.4f, err %v", res.TargetMet, res.VerifiedCond, err)
	}
	if _, _, k, err := testkit.ExactCond(g, res.Sparsifier); err != nil || k > goldenSigma2 {
		t.Errorf("sbm4x128/seed1/shards4: exact κ %.4f (err %v), want ≤ %d", k, err, goldenSigma2)
	}
}

// Every plan on every golden graph follows the one verdict rule.
func TestTargetMetIsTheCertificate(t *testing.T) {
	ctx := context.Background()
	for _, gr := range goldenGraphs(t) {
		for _, seed := range []uint64{1, 7} {
			for _, sigma := range []float64{20, 50} {
				for _, cfg := range goldenConfigs {
					name := fmt.Sprintf("%s/seed%d/σ²=%g/%s", gr.name, seed, sigma, cfg.name)
					s, err := graphspar.New(append([]graphspar.Option{graphspar.WithSigma2(sigma), graphspar.WithSeed(seed)}, cfg.opts...)...)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					res, err := s.Run(ctx, gr.g)
					if err != nil && !errors.Is(err, graphspar.ErrNoTarget) {
						t.Fatalf("%s: %v", name, err)
					}
					checkVerdict(t, name, res, err, sigma)
				}
			}
		}
	}
}
