package graphspar_test

// Dense referee for the certificate: the exact relative condition number
// κ(L_G, L_P), computed without any code the pipeline uses to produce or
// certify a sparsifier, against which the Lanczos certificate and the
// TargetMet verdict are checked.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"graphspar"
	"graphspar/internal/eig"
	"graphspar/internal/gen"
)

// oracleMaxN bounds the dense oracle: O(n²) memory, O(n³) time.
const oracleMaxN = 600

// groundedLaplacian is L_g as a dense matrix with the last vertex grounded
// (its row and column dropped).
func groundedLaplacian(g *graphspar.Graph) [][]float64 {
	m := g.N() - 1
	l := make([][]float64, m)
	for i := range l {
		l[i] = make([]float64, m)
	}
	for _, e := range g.Edges() {
		if e.U < m {
			l[e.U][e.U] += e.W
		}
		if e.V < m {
			l[e.V][e.V] += e.W
		}
		if e.U < m && e.V < m {
			l[e.U][e.V] -= e.W
			l[e.V][e.U] -= e.W
		}
	}
	return l
}

// pencilMatrix reduces the grounded pencil (L_G, L_P) to one symmetric
// matrix R⁻¹ L_G R⁻ᵀ with the same eigenvalues, where L_P = R Rᵀ is the
// dense Cholesky factor. Grounding a vertex removes the shared all-ones
// null vector, so these are exactly the generalized eigenvalues of the
// pencil on 1⊥.
func pencilMatrix(g, p *graphspar.Graph) ([][]float64, error) {
	if g.N() != p.N() {
		return nil, fmt.Errorf("oracle: |V(G)| = %d, |V(P)| = %d", g.N(), p.N())
	}
	if g.N() > oracleMaxN {
		return nil, fmt.Errorf("oracle: n = %d exceeds the dense limit %d", g.N(), oracleMaxN)
	}
	lg, r := groundedLaplacian(g), groundedLaplacian(p)
	m := len(r)
	for j := 0; j < m; j++ { // lower Cholesky in place; the upper triangle is never read
		for k := 0; k < j; k++ {
			r[j][j] -= r[j][k] * r[j][k]
		}
		if !(r[j][j] > 0) {
			return nil, fmt.Errorf("oracle: grounded L_P is not positive definite at pivot %d (is P connected?)", j)
		}
		r[j][j] = math.Sqrt(r[j][j])
		for i := j + 1; i < m; i++ {
			for k := 0; k < j; k++ {
				r[i][j] -= r[i][k] * r[j][k]
			}
			r[i][j] /= r[j][j]
		}
	}
	// forward overwrites a with R⁻¹ a, column by column, and returns its
	// transpose.
	forward := func(a [][]float64) [][]float64 {
		for i := 0; i < m; i++ {
			for k := 0; k < i; k++ {
				if rik := r[i][k]; rik != 0 {
					for j := range a[i] {
						a[i][j] -= rik * a[k][j]
					}
				}
			}
			for j := range a[i] {
				a[i][j] /= r[i][i]
			}
		}
		t := make([][]float64, m)
		for i := range t {
			t[i] = make([]float64, m)
			for j := range t[i] {
				t[i][j] = a[j][i]
			}
		}
		return t
	}
	s := forward(forward(lg)) // (R⁻¹ (R⁻¹ L_G)ᵀ)ᵀ = R⁻¹ L_G R⁻ᵀ
	for i := range s {
		for j := i + 1; j < m; j++ {
			s[i][j] = (s[i][j] + s[j][i]) / 2
			s[j][i] = s[i][j]
		}
	}
	return s, nil
}

// tridiagonalize reduces a symmetric matrix to tridiagonal form by
// Householder reflections (a is overwritten) and returns the diagonal and
// the subdiagonal in eig.TQL2's convention.
func tridiagonalize(a [][]float64) (d, e []float64) {
	m := len(a)
	d, e = make([]float64, m), make([]float64, max(m-1, 0))
	for k := 0; k+2 < m; k++ {
		// v reflects a[k+1:][k] onto alpha·e₁.
		v := make([]float64, m-k-1)
		norm := 0.0
		for i := range v {
			v[i] = a[k+1+i][k]
			norm += v[i] * v[i]
		}
		norm = math.Sqrt(norm)
		alpha := -norm
		if v[0] < 0 {
			alpha = norm
		}
		e[k] = alpha
		v[0] -= alpha
		vn := 0.0
		for _, x := range v {
			vn += x * x
		}
		if vn == 0 {
			continue // the column is already reduced
		}
		vn = math.Sqrt(vn)
		for i := range v {
			v[i] /= vn
		}
		// A ← H A H with H = I − 2vvᵀ: w = A v, q = w − (vᵀw) v,
		// A ← A − 2(v qᵀ + q vᵀ).
		w := make([]float64, len(v))
		for i := range v {
			row := a[k+1+i][k+1:]
			for j, x := range v {
				w[i] += row[j] * x
			}
		}
		c := 0.0
		for i := range v {
			c += v[i] * w[i]
		}
		for i := range w {
			w[i] -= c * v[i]
		}
		for i := range v {
			row := a[k+1+i][k+1:]
			for j := range v {
				row[j] -= 2 * (v[i]*w[j] + w[i]*v[j])
			}
		}
	}
	for i := 0; i < m; i++ {
		d[i] = a[i][i]
	}
	if m >= 2 {
		e[m-2] = a[m-1][m-2]
	}
	return d, e
}

// exactCond is the dense oracle: the extreme generalized eigenvalues of
// (L_G, L_P) and their ratio κ, by Cholesky reduction, Householder
// tridiagonalization and eig.TQL2. It refuses n > oracleMaxN.
func exactCond(g, p *graphspar.Graph) (lmax, lmin, cond float64, err error) {
	s, err := pencilMatrix(g, p)
	if err != nil {
		return 0, 0, 0, err
	}
	d, e := tridiagonalize(s)
	if err := eig.TQL2(d, e, nil); err != nil {
		return 0, 0, 0, err
	}
	lmax, lmin = d[len(d)-1], d[0]
	return lmax, lmin, lmax / lmin, nil
}

func TestExactCondSelfChecks(t *testing.T) {
	barbell, err := gen.Barbell(24, 12, gen.UniformWeights, 5)
	if err != nil {
		t.Fatal(err)
	}
	// P = G: every generalized eigenvalue is 1.
	if lmax, lmin, cond, err := exactCond(barbell, barbell); err != nil || math.Abs(lmax-1) > 1e-12 || math.Abs(lmin-1) > 1e-12 || math.Abs(cond-1) > 1e-12 {
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
	lmax, lmin, _, err := exactCond(barbell, res.Sparsifier)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pencilMatrix(barbell, res.Sparsifier)
	if err != nil {
		t.Fatal(err)
	}
	vals, _, err := eig.JacobiEigen(m)
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
	if lmax, lmin, _, err := exactCond(g, path); err != nil || math.Abs(lmax-n) > 1e-9 || math.Abs(lmin-1) > 1e-12 {
		t.Errorf("cycle vs path: λ ∈ [%v, %v], err %v; want [1, %d]", lmin, lmax, err, n)
	}
	big, err := gen.Grid2D(25, 25, gen.UniformWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := exactCond(big, big); err == nil {
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
		if gr.g.N() > oracleMaxN {
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
					if _, _, k, err = exactCond(gr.g, res.Sparsifier); err != nil {
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
		if _, _, k, err := exactCond(g, res.Sparsifier); err != nil || (res.TargetMet && k > sigma) {
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
	if _, _, k, err := exactCond(g, res.Sparsifier); err != nil || k > goldenSigma2 {
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
