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
