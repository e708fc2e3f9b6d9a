package graphspar_test

// Facade contract tests: a single-shot Run must be bit-identical to the
// paper's edge filter called directly (core.Sparsify, the reference the
// whole pipeline is built on), a facade Stream to the dynamic.Maintainer
// it wraps; option validation must reject contradictions with typed
// errors, and verification must run exactly when documented. What Run
// produces under every plan, on every graph family, is pinned bit for bit
// by pipeline_golden_test.go.

import (
	"context"
	"errors"
	"testing"

	"graphspar"
	"graphspar/internal/core"
	"graphspar/internal/dynamic"
	"graphspar/internal/engine"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
)

// facadeTestGraphs builds the grid / SBM / barbell trio the equivalence
// suite runs on.
func facadeTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	grid, err := gen.Grid2D(20, 20, gen.UniformWeights, 9)
	if err != nil {
		t.Fatal(err)
	}
	sbm, _, err := gen.SBM(4, 60, 0.2, 0.02, 13)
	if err != nil {
		t.Fatal(err)
	}
	barbell, err := gen.Barbell(10, 5, gen.UniformWeights, 5)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"grid": grid, "sbm": sbm, "barbell": barbell}
}

// sameGraph asserts two graphs are bit-identical: same vertex count and
// the same edge list in the same order with exactly equal weights.
func sameGraph(t *testing.T, name string, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: graph shape (n=%d m=%d), want (n=%d m=%d)",
			name, got.N(), got.M(), want.N(), want.M())
	}
	for i, we := range want.Edges() {
		ge := got.Edge(i)
		if ge.U != we.U || ge.V != we.V || ge.W != we.W {
			t.Fatalf("%s: edge %d = (%d,%d,%v), want (%d,%d,%v)",
				name, i, ge.U, ge.V, ge.W, we.U, we.V, we.W)
		}
	}
}

func sameInts(t *testing.T, name string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
}

func TestFacadeSingleShotBitIdentical(t *testing.T) {
	const sigma2, seed = 60.0, 7
	for name, g := range facadeTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			want, wantErr := core.Sparsify(g, core.Options{SigmaSq: sigma2, Seed: seed})
			if wantErr != nil && !errors.Is(wantErr, core.ErrNoTarget) {
				t.Fatal(wantErr)
			}

			s, err := graphspar.New(
				graphspar.WithSigma2(sigma2),
				graphspar.WithSeed(seed),
				graphspar.WithShards(1),
			)
			if err != nil {
				t.Fatal(err)
			}
			got, gotErr := s.Run(context.Background(), g)
			if gotErr != nil && !errors.Is(gotErr, graphspar.ErrNoTarget) {
				t.Fatal(gotErr)
			}
			if errors.Is(gotErr, graphspar.ErrNoTarget) != errors.Is(wantErr, core.ErrNoTarget) {
				t.Fatalf("target errors diverge: facade %v, core %v", gotErr, wantErr)
			}

			sameGraph(t, "sparsifier", got.Sparsifier, want.Sparsifier)
			sameInts(t, "tree ids", got.TreeEdgeIDs, want.TreeEdgeIDs)
			sameInts(t, "off-tree ids", got.OffTreeAddedIDs, want.OffTreeAddedIDs)
			if got.LambdaMax != want.LambdaMax || got.LambdaMin != want.LambdaMin ||
				got.SigmaSqAchieved != want.SigmaSqAchieved {
				t.Errorf("certificate: (%v, %v, %v), want (%v, %v, %v)",
					got.LambdaMax, got.LambdaMin, got.SigmaSqAchieved,
					want.LambdaMax, want.LambdaMin, want.SigmaSqAchieved)
			}
			if got.TotalStretch != want.TotalStretch {
				t.Errorf("total stretch %v, want %v", got.TotalStretch, want.TotalStretch)
			}
			if len(got.Rounds) != len(want.Rounds) {
				t.Fatalf("rounds %d, want %d", len(got.Rounds), len(want.Rounds))
			}
			for i := range want.Rounds {
				if got.Rounds[i] != want.Rounds[i] {
					t.Errorf("round %d: %+v, want %+v", i, got.Rounds[i], want.Rounds[i])
				}
			}
			if got.Sharded {
				t.Error("WithShards(1) must run the single-shot pipeline")
			}
		})
	}
}

// TestFacadeMaintainBitIdentical checks Maintain + Apply against a direct
// dynamic.Maintainer under the same updates.
func TestFacadeMaintainBitIdentical(t *testing.T) {
	const sigma2, seed = 60.0, 7
	g, err := gen.Grid2D(12, 12, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	batch := []graphspar.Update{
		graphspar.Insert(0, 143, 1.3),
		graphspar.Delete(0, 1),
		graphspar.Reweight(1, 2, 2.5),
	}

	m, err := dynamic.New(context.Background(), g, engine.Options{Sparsify: core.Options{SigmaSq: sigma2, Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(context.Background(), batch); err != nil {
		t.Fatal(err)
	}

	s, err := graphspar.New(graphspar.WithSigma2(sigma2), graphspar.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Maintain(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(context.Background(), batch); err != nil {
		t.Fatal(err)
	}

	sameGraph(t, "maintained sparsifier", st.Sparsifier(), m.Sparsifier())
	if st.Cond() != m.Cond() || st.TargetMet() != m.TargetMet() {
		t.Errorf("certificate (κ=%v met=%v), want (κ=%v met=%v)",
			st.Cond(), st.TargetMet(), m.Cond(), m.TargetMet())
	}
	if st.Stats() != m.Stats() {
		t.Errorf("stats %+v, want %+v", st.Stats(), m.Stats())
	}
}

func TestFacadeValidation(t *testing.T) {
	if _, err := graphspar.New(); !errors.Is(err, graphspar.ErrBadSigma2) {
		t.Errorf("missing σ²: err = %v, want ErrBadSigma2", err)
	}
	if _, err := graphspar.New(graphspar.WithSigma2(0.5)); !errors.Is(err, graphspar.ErrInvalidOptions) {
		t.Errorf("bad σ²: err = %v, want ErrInvalidOptions", err)
	}
	if _, err := graphspar.New(graphspar.WithSigma2(50), graphspar.WithShards(-1)); !errors.Is(err, graphspar.ErrBadShards) {
		t.Errorf("negative shards: err = %v, want ErrBadShards", err)
	}
	if _, err := graphspar.New(graphspar.WithSigma2(50)); err != nil {
		t.Errorf("minimal valid options rejected: %v", err)
	}
	// MaxEdges is a single-shot knob: it does not compose with a sharded
	// pin (the engine would apply the cap per shard)...
	if _, err := graphspar.New(graphspar.WithSigma2(50), graphspar.WithShards(4), graphspar.WithMaxEdges(100)); !errors.Is(err, graphspar.ErrInvalidOptions) {
		t.Errorf("MaxEdges+shards: err = %v, want ErrInvalidOptions", err)
	}
	// ...nor with streams (re-filter rounds cannot honor an edge budget).
	s, err := graphspar.New(graphspar.WithSigma2(50), graphspar.WithMaxEdges(100))
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Grid2D(4, 4, gen.UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Maintain(context.Background(), g); !errors.Is(err, graphspar.ErrInvalidOptions) {
		t.Errorf("MaxEdges+Maintain: err = %v, want ErrInvalidOptions", err)
	}
}

// TestFacadeVerificationMatchesServiceContract pins the single-shot
// verification path: WithVerification must report the same independent
// Lanczos estimate the service's job runner historically attached.
func TestFacadeVerificationSingleShot(t *testing.T) {
	g, err := gen.Grid2D(15, 15, gen.UniformWeights, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := graphspar.New(
		graphspar.WithSigma2(50),
		graphspar.WithSeed(7),
		graphspar.WithShards(1),
		graphspar.WithVerification(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("WithVerification must run the independent check")
	}
	if res.VerifiedCond <= 0 || res.VerifiedCond > 50 {
		t.Errorf("verified κ = %v outside (0, 50]", res.VerifiedCond)
	}
	// Without the option, the single-shot path skips verification.
	s2, err := graphspar.New(graphspar.WithSigma2(50), graphspar.WithSeed(7), graphspar.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verified || res2.VerifiedCond != 0 {
		t.Errorf("default single-shot run must not verify: %+v", res2)
	}
}
