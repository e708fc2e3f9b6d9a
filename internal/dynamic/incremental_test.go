package dynamic_test

import (
	"context"
	"errors"
	"testing"

	"graphspar/internal/core"
	"graphspar/internal/dynamic"
	"graphspar/internal/engine"
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
		testkit.AssertInvariant(t, m, sigmaSq)
	}
	if applied < batches {
		t.Fatalf("only %d/%d batches applied", applied, batches)
	}
}

// TestIncrementalFactorUpdatesUsed checks that with the default update
// budget the maintainer folds sparsifier deltas into the factor via rank-1
// update/downdates instead of refactoring per batch, while the verified
// certificate keeps holding.
func TestIncrementalFactorUpdatesUsed(t *testing.T) {
	const sigmaSq = 60
	for _, c := range testkit.Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			g, err := c.Build(9)
			if err != nil {
				t.Fatal(err)
			}
			m, err := dynamic.New(context.Background(), g, dynamic.Options{
				Options: engine.Options{Sparsify: core.Options{SigmaSq: sigmaSq, Seed: 9}},
			})
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

// TestFactorUpdateBudgetDisabled pins the knob contract: a negative budget
// must force a full refactorization on every materialization and never
// take the rank-1 path.
func TestFactorUpdateBudgetDisabled(t *testing.T) {
	const sigmaSq = 60
	g, err := testkit.Cases()[0].Build(9)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dynamic.New(context.Background(), g, dynamic.Options{
		Options:            engine.Options{Sparsify: core.Options{SigmaSq: sigmaSq, Seed: 9}},
		FactorUpdateBudget: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	runStream(t, m, sigmaSq, 4242, 6)
	st := m.Stats()
	if st.FactorUpdates+st.FactorDowndates != 0 {
		t.Fatalf("disabled budget still produced %d updates/%d downdates",
			st.FactorUpdates, st.FactorDowndates)
	}
	if st.FactorRebuilds == 0 {
		t.Fatal("disabled budget produced no rebuilds either")
	}
}

// TestLocalRefreshKeepsInvariant runs the stream with ball-local embedding
// refreshes enabled and checks both that the local path actually fires and
// that the independently verified certificate never slips past σ².
func TestLocalRefreshKeepsInvariant(t *testing.T) {
	const sigmaSq = 60
	for _, c := range testkit.Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			g, err := c.Build(9)
			if err != nil {
				t.Fatal(err)
			}
			m, err := dynamic.New(context.Background(), g, dynamic.Options{
				Options:            engine.Options{Sparsify: core.Options{SigmaSq: sigmaSq, Seed: 9}},
				LocalRefreshRadius: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			runStream(t, m, sigmaSq, 777, 8)
			st := m.Stats()
			if st.LocalSteps == 0 {
				t.Logf("%s: no local steps fired (balls past cap on a small graph); stats=%+v", c.Name, st)
			} else {
				t.Logf("%s: local_steps=%d refreshes=%d", c.Name, st.LocalSteps, st.EmbedRefreshes)
			}
		})
	}
}

// TestLocalRefreshFiresOnLargeGraph uses a graph big enough that a radius-2
// ball stays under the n/4 cap, so the local path must actually be taken.
func TestLocalRefreshFiresOnLargeGraph(t *testing.T) {
	const sigmaSq = 60
	g, err := testkit.Cases()[0].Build(21) // grid
	if err != nil {
		t.Fatal(err)
	}
	m, err := dynamic.New(context.Background(), g, dynamic.Options{
		Options:            engine.Options{Sparsify: core.Options{SigmaSq: sigmaSq, Seed: 21}},
		LocalRefreshRadius: 1,
		LocalRefreshSweeps: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	runStream(t, m, sigmaSq, 31337, 8)
	if st := m.Stats(); st.LocalSteps == 0 {
		t.Fatalf("radius-1 balls on a %d-vertex grid never took the local path: %+v", g.N(), st)
	}
}
