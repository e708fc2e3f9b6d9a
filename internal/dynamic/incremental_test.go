package dynamic_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/dynamic"
	"graphspar/internal/engine"
	"graphspar/internal/gen"
	"graphspar/internal/obs"
	"graphspar/internal/testkit"
	"graphspar/internal/vecmath"
)

// runStream pushes batches through m until applied batches were accepted,
// asserting the σ² invariant after each one.
func runStream(t *testing.T, m *dynamic.Maintainer, sigmaSq float64, seed uint64, batches int) {
	t.Helper()
	rng := vecmath.NewRNG(seed)
	applied := 0
	for i := 0; applied < batches && i < 4*batches; i++ {
		batch := testkit.RandomBatch(m.Graph(), rng, 1+rng.Intn(4))
		if len(batch) == 0 {
			continue
		}
		err := m.Apply(context.Background(), batch)
		if errors.Is(err, dynamic.ErrWouldDisconnect) {
			continue
		}
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		applied++
		checkInvariant(t, m, sigmaSq)
	}
	if applied < batches {
		t.Fatalf("only %d/%d batches applied", applied, batches)
	}
}

// TestIncrementalFactorUpdatesUsed checks that the maintainer folds
// sparsifier deltas into the factor via rank-1 update/downdates instead of
// refactoring per batch, while the verified certificate keeps holding.
func TestIncrementalFactorUpdatesUsed(t *testing.T) {
	const sigmaSq = 60
	for _, c := range testkit.Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			g, err := c.Build(9)
			if err != nil {
				t.Fatal(err)
			}
			m, err := dynamic.New(context.Background(), g, engine.Options{Sparsify: core.Options{SigmaSq: sigmaSq, Seed: 9}})
			if err != nil {
				t.Fatal(err)
			}
			runStream(t, m, sigmaSq, 4242, 8)
			st := m.Stats()
			if st.FactorUpdates+st.FactorDowndates == 0 {
				t.Fatalf("no incremental factor updates over 8 batches: %+v", st)
			}
			t.Logf("%s: updates=%d downdates=%d rebuilds=%d",
				c.Name, st.FactorUpdates, st.FactorDowndates, st.FactorRebuilds)
		})
	}
}

// factorSpans counts the "factor" phases tr recorded.
func factorSpans(tr *obs.Trace) int {
	n := 0
	for _, p := range tr.Phases() {
		if p.Name == string(obs.PhaseFactor) {
			n++
		}
	}
	return n
}

// TestFactorSpans pins where the maintainer factors P, on the 128² grid at
// σ² = 100 whose build certifies below the re-filter margin: a build
// adopts the factor the plan ended on, so dynamic.New records exactly the
// "factor" phases engine.Select does; a reweight folded in as rank-1
// updates records none; so does a churn batch, whose edges outside the
// factor's pattern (admitted inserts, tree repairs) grow the pattern
// instead of refactoring it, and a batch that deletes one tree edge; and
// a refactorization, forced here by a batch past the update budget,
// records one phase.
func TestFactorSpans(t *testing.T) {
	const side = 128
	g, err := gen.Grid2D(side, side, gen.UniformWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := engine.Options{Sparsify: core.Options{SigmaSq: 100, Seed: 1}, Workers: 2}
	sel := obs.NewTrace()
	if _, _, err := engine.Select(obs.WithTrace(context.Background(), sel), g, opt); err != nil {
		t.Fatal(err)
	}
	build := obs.NewTrace()
	m, err := dynamic.New(obs.WithTrace(context.Background(), build), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Refilters != 0 || st.FactorRebuilds != 1 {
		t.Fatalf("build re-filtered %d rounds over %d factorizations; the case needs a build certified at once", st.Refilters, st.FactorRebuilds)
	}
	if got, want := factorSpans(build), factorSpans(sel); got != want || want == 0 {
		t.Errorf("dynamic.New recorded %d factor phases, engine.Select %d: the build factored P again", got, want)
	}

	t.Run("reweight", func(t *testing.T) {
		before := m.Stats()
		p := m.Sparsifier()
		var batch []dynamic.Update
		for _, i := range []int{0, p.M() / 2} {
			e := p.Edge(i)
			batch = append(batch, dynamic.Reweight(e.U, e.V, 1.05*e.W))
		}
		tr := obs.NewTrace()
		if err := m.Apply(obs.WithTrace(context.Background(), tr), batch); err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if st.FactorRebuilds != before.FactorRebuilds || st.FactorUpdates+st.FactorDowndates == before.FactorUpdates+before.FactorDowndates {
			t.Fatalf("reweight took %d refactorizations and %d rank-1 updates; the case needs the rank-1 path alone",
				st.FactorRebuilds-before.FactorRebuilds, st.FactorUpdates+st.FactorDowndates-before.FactorUpdates-before.FactorDowndates)
		}
		if got := factorSpans(tr); got != 0 {
			t.Errorf("rank-1 updates recorded %d factor phases", got)
		}
	})
	t.Run("churn", func(t *testing.T) {
		before, nnz := m.Stats(), m.FactorNNZ()
		tr := obs.NewTrace()
		if err := m.Apply(obs.WithTrace(context.Background(), tr), churnBatch(t, m.Graph(), side, vecmath.NewRNG(1))); err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if st.Rebuilds != before.Rebuilds || m.FactorNNZ() <= nnz {
			t.Fatalf("batch took %d rebuilds and left the factor at %d entries, %d before; the case needs an edge outside the pattern and no rebuild",
				st.Rebuilds-before.Rebuilds, m.FactorNNZ(), nnz)
		}
		if refactors := st.FactorRebuilds - before.FactorRebuilds; refactors != 0 {
			t.Errorf("churn batch refactored %d times; its admissions and repairs should grow the factor", refactors)
		}
		if got := factorSpans(tr); got != 0 {
			t.Errorf("churn batch recorded %d factor phases", got)
		}
		if lag, err := m.FactorLag(); err != nil || lag > 1e-8 {
			t.Fatalf("grown factor out of step with the sparsifier: solve differs by %.3g (err %v)", lag, err)
		}
	})
	t.Run("tree-repair", func(t *testing.T) {
		// Delete tree edges one batch at a time until a repair edge lands
		// outside the pattern; no deletion or repair may refactor.
		for _, e := range treeEdges(m)[:16] {
			before, nnz := m.Stats(), m.FactorNNZ()
			tr := obs.NewTrace()
			if err := m.Apply(obs.WithTrace(context.Background(), tr), []dynamic.Update{dynamic.Delete(e.U, e.V)}); err != nil {
				t.Fatal(err)
			}
			st := m.Stats()
			if st.TreeRepairs != before.TreeRepairs+1 || st.Rebuilds != before.Rebuilds {
				t.Fatalf("deleting tree edge (%d,%d) took %d repairs and %d rebuilds; the case needs one repair", e.U, e.V, st.TreeRepairs-before.TreeRepairs, st.Rebuilds-before.Rebuilds)
			}
			if refactors := st.FactorRebuilds - before.FactorRebuilds; refactors != 0 || factorSpans(tr) != 0 {
				t.Fatalf("deleting tree edge (%d,%d) refactored %d times (%d factor phases)", e.U, e.V, refactors, factorSpans(tr))
			}
			if lag, err := m.FactorLag(); err != nil || lag > 1e-8 {
				t.Fatalf("factor out of step after repairing (%d,%d): solve differs by %.3g (err %v)", e.U, e.V, lag, err)
			}
			if m.FactorNNZ() > nnz {
				return
			}
		}
		t.Fatal("no repair among 16 tree-edge deletions grew the pattern")
	})
	t.Run("budget", func(t *testing.T) {
		// One reweight batch with a delta more than the update budget allows.
		before := m.Stats()
		p := m.Sparsifier()
		var batch []dynamic.Update
		for i := 0; len(batch) <= dynamic.FactorUpdateBudget; i += 7 {
			e := p.Edge(i)
			batch = append(batch, dynamic.Reweight(e.U, e.V, 1.05*e.W))
		}
		tr := obs.NewTrace()
		if err := m.Apply(obs.WithTrace(context.Background(), tr), batch); err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		refactors := st.FactorRebuilds - before.FactorRebuilds
		if refactors == 0 || st.Rebuilds != before.Rebuilds {
			t.Fatalf("batch refactored %d times with %d rebuilds; the case needs a refactor without one", refactors, st.Rebuilds-before.Rebuilds)
		}
		if got := factorSpans(tr); got != refactors {
			t.Errorf("%d refactorizations recorded %d factor phases", refactors, got)
		}
	})
}

// TestRefactorOrdersAfresh: a forced refactorization is
// cholesky.NewLapSolver of the sparsifier — the same nnz(L), and solves
// equal bit for bit — on two streams. After 40 of BenchmarkChurnApply's
// churn batches on the 128² grid at σ² = 100 (admitted inserts and tree
// repairs grow the factor's pattern, budget refactors come and go), a
// refactorization under the build's elimination order would carry the
// fill that order accrues as the sparsifier drifts away from the one it
// was computed for. On TestIncrementalFactorUpdatesUsed's barbell stream
// (n = 25) every state whose sparsifier is within n/32 edges of its
// spanning tree — the build's and later ones — is refactored the same way.
func TestRefactorOrdersAfresh(t *testing.T) {
	ctx := context.Background()
	t.Run("churned", func(t *testing.T) {
		const side = 128
		g, err := gen.Grid2D(side, side, gen.UniformWeights, 1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := dynamic.New(ctx, g, engine.Options{Sparsify: core.Options{SigmaSq: benchSigmaSq, Seed: 1}, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		rng := vecmath.NewRNG(1)
		for i := 0; i < 40; i++ {
			if err := m.Apply(ctx, churnBatch(t, m.Graph(), side, rng)); err != nil {
				t.Fatal(err)
			}
		}
		if st := m.Stats(); st.Rebuilds != 0 {
			t.Fatalf("the batches took %d full rebuilds; the case needs the build's order to age", st.Rebuilds)
		}
		requireFreshRefactor(t, m)
	})
	t.Run("near-tree", func(t *testing.T) {
		const sigmaSq = 60
		g, err := testkit.Cases()[2].Build(9) // the barbell, n = 25
		if err != nil {
			t.Fatal(err)
		}
		m, err := dynamic.New(ctx, g, engine.Options{Sparsify: core.Options{SigmaSq: sigmaSq, Seed: 9}})
		if err != nil {
			t.Fatal(err)
		}
		rng := vecmath.NewRNG(4242)
		checked := 0
		for i := 0; i < 32; i++ {
			if p := m.Sparsifier(); (p.M()-(p.N()-1))*32 <= p.N() {
				requireFreshRefactor(t, m)
				checked++
			}
			err := m.Apply(ctx, testkit.RandomBatch(m.Graph(), rng, 1+rng.Intn(4)))
			if err != nil && !errors.Is(err, dynamic.ErrWouldDisconnect) {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
		if checked < 2 {
			t.Fatalf("the stream's sparsifier was within n/32 edges of its tree %d times; the case needs the build and a later state", checked)
		}
	})
}

// requireFreshRefactor forces a refactorization of m and requires it to
// be cholesky.NewLapSolver of m's sparsifier: the same nnz(L), and solves
// equal bit for bit.
func requireFreshRefactor(t *testing.T, m *dynamic.Maintainer) {
	t.Helper()
	if err := m.Refactor(); err != nil {
		t.Fatal(err)
	}
	fresh, err := cholesky.NewLapSolver(m.Sparsifier())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.FactorNNZ(), fresh.FactorNNZ(); got != want {
		t.Fatalf("refactored factor has %d entries, a fresh order's %d (%.2f×)", got, want, float64(got)/float64(want))
	}
	n := m.Sparsifier().N()
	b, x, y := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(5*i + 2))
	}
	m.Solver().Solve(x, b)
	fresh.Solve(y, b)
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			t.Fatalf("refactored solve x[%d] = %v, a fresh factor's %v", i, x[i], y[i])
		}
	}
}
