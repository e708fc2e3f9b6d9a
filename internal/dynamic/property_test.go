package dynamic_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"graphspar/internal/core"
	"graphspar/internal/dynamic"
	"graphspar/internal/engine"
	"graphspar/internal/testkit"
	"graphspar/internal/vecmath"
)

// TestPropertyRandomStreamsKeepInvariant is the dynamic invariant suite:
// for every graph family and seed, a randomized stream of mixed update
// batches is pushed through the Maintainer, and after every accepted
// batch the independently verified condition number must stay within the
// requested σ². Batches that would disconnect the graph must be rejected
// with the typed error and leave the maintainer untouched.
func TestPropertyRandomStreamsKeepInvariant(t *testing.T) {
	const sigmaSq = 60
	for _, c := range testkit.Cases() {
		for _, seed := range []uint64{1, 2} {
			c, seed := c, seed
			t.Run(c.Name, func(t *testing.T) {
				g, err := c.Build(seed)
				if err != nil {
					t.Fatal(err)
				}
				m, err := dynamic.New(context.Background(), g, engine.Options{Sparsify: core.Options{SigmaSq: sigmaSq, Seed: seed}})
				if err != nil {
					t.Fatal(err)
				}
				checkInvariant(t, m, sigmaSq)

				rng := vecmath.NewRNG(seed * 7919)
				var st testkit.StreamStats
				for i := 0; i < 8; i++ {
					size := 1 + rng.Intn(6)
					batch := testkit.RandomBatch(m.Graph(), rng, size)
					if len(batch) == 0 {
						continue
					}
					condBefore := m.Cond()
					err := m.Apply(context.Background(), batch)
					switch {
					case errors.Is(err, dynamic.ErrWouldDisconnect):
						st.Rejected++
						if m.Cond() != condBefore {
							t.Fatal("rejected batch must leave the maintainer unchanged")
						}
						continue
					case err != nil:
						t.Fatalf("batch %d: %v", i, err)
					}
					st.Applied++
					checkInvariant(t, m, sigmaSq)
				}
				if st.Applied == 0 {
					t.Fatalf("stream applied nothing (%v); generator too hostile", st)
				}
				t.Logf("%s seed=%d: %v, stats=%+v", c.Name, seed, st, m.Stats())
			})
		}
	}
}

// TestPropertyTinyDriftBudgetStillKeepsInvariant forces the rebuild path
// to fire on every batch — each one inserts more than a quarter of the
// current edge count in fresh chords, spending the whole drift budget —
// and checks the invariant is maintained through rebuilds too: the
// deterministic forced-rebuild coverage on top of randomized streams.
func TestPropertyTinyDriftBudgetStillKeepsInvariant(t *testing.T) {
	const sigmaSq = 60
	c := testkit.Cases()[0] // grid
	g, err := c.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dynamic.New(context.Background(), g, engine.Options{Sparsify: core.Options{SigmaSq: sigmaSq, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	rng := vecmath.NewRNG(11)
	const batches = 3
	for i := 0; i < batches; i++ {
		if err := m.Apply(context.Background(), pastDriftBudget(m, rng)); err != nil {
			t.Fatal(err)
		}
		checkInvariant(t, m, sigmaSq)
	}
	if m.Stats().Rebuilds != batches {
		t.Fatalf("Rebuilds = %d, want %d (every batch must spend the budget)", m.Stats().Rebuilds, batches)
	}
}

// TestEquivalenceWithFromScratchSparsify replays a long random stream and
// compares the maintained sparsifier against a from-scratch Sparsify of
// the final graph: both certificates must meet σ², and the incremental
// sparsifier must not be wildly denser than the scratch one (the
// incremental path trades a bounded amount of sparsity for speed).
func TestEquivalenceWithFromScratchSparsify(t *testing.T) {
	const sigmaSq = 60
	for _, c := range testkit.Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			g, err := c.Build(5)
			if err != nil {
				t.Fatal(err)
			}
			m, err := dynamic.New(context.Background(), g, engine.Options{Sparsify: core.Options{SigmaSq: sigmaSq, Seed: 5}})
			if err != nil {
				t.Fatal(err)
			}
			rng := vecmath.NewRNG(1234)
			applied := 0
			for applied < 10 {
				batch := testkit.RandomBatch(m.Graph(), rng, 3)
				if len(batch) == 0 {
					break
				}
				err := m.Apply(context.Background(), batch)
				if errors.Is(err, dynamic.ErrWouldDisconnect) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				applied++
			}
			if applied < 10 {
				t.Fatalf("only %d batches applied", applied)
			}

			final := m.Graph()
			scratch, err := core.Sparsify(final, core.Options{SigmaSq: sigmaSq, Seed: 5})
			if err != nil && !errors.Is(err, core.ErrNoTarget) {
				t.Fatal(err)
			}

			condInc, err := testkit.VerifyCond(final, m.Sparsifier(), 777)
			if err != nil {
				t.Fatal(err)
			}
			condScratch, err := testkit.VerifyCond(final, scratch.Sparsifier, 777)
			if err != nil {
				t.Fatal(err)
			}
			if condInc > sigmaSq {
				t.Fatalf("incremental κ = %.2f exceeds σ² = %d", condInc, sigmaSq)
			}
			if condScratch > sigmaSq {
				t.Fatalf("scratch κ = %.2f exceeds σ² = %d (baseline broken)", condScratch, sigmaSq)
			}
			// Certificates agree up to estimator tolerance: both are ≤ σ²
			// and within a σ²-scale band of each other.
			if diff := math.Abs(condInc - condScratch); diff > sigmaSq {
				t.Fatalf("certificates diverge: incremental %.2f vs scratch %.2f", condInc, condScratch)
			}
			incM, scrM := m.Sparsifier().M(), scratch.Sparsifier.M()
			if float64(incM) > 2.5*float64(scrM) {
				t.Fatalf("incremental sparsifier too dense: %d edges vs scratch %d", incM, scrM)
			}
			t.Logf("%s: incremental κ=%.1f |E|=%d, scratch κ=%.1f |E|=%d",
				c.Name, condInc, incM, condScratch, scrM)
		})
	}
}
