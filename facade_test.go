package graphspar_test

// Facade contract tests: a single-shot Run must be bit-identical to the
// paper's edge filter called directly (core.Sparsify, the reference the
// whole pipeline is built on), a facade Stream to the dynamic.Maintainer
// it wraps; option validation must reject bad values with typed errors,
// the deprecated WithShards must spell a mode bit for bit, and
// verification must run exactly when documented. What Run
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
				graphspar.WithMode(graphspar.ModeSingleShot),
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
				t.Error("ModeSingleShot must run the single-shot pipeline")
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
}

// TestWithShardsIsModeAlias: the deprecated WithShards maps 0, 1 and
// AutoShards onto ModeAuto, ModeSingleShot and ModeSharded bit for bit on
// the golden graphs, and every other count is ErrBadShards.
func TestWithShardsIsModeAlias(t *testing.T) {
	ctx := context.Background()
	for _, gr := range goldenGraphs(t) {
		for _, c := range []struct {
			k    int
			mode graphspar.Mode
		}{{0, graphspar.ModeAuto}, {1, graphspar.ModeSingleShot}, {graphspar.AutoShards, graphspar.ModeSharded}} {
			var got [2]*graphspar.Result
			for i, opt := range []graphspar.Option{graphspar.WithShards(c.k), graphspar.WithMode(c.mode)} {
				s, err := graphspar.New(graphspar.WithSigma2(goldenSigma2), graphspar.WithSeed(7), opt)
				if err != nil {
					t.Fatal(err)
				}
				if got[i], err = s.Run(ctx, gr.g); err != nil && !errors.Is(err, graphspar.ErrNoTarget) {
					t.Fatal(err)
				}
			}
			a, b := got[0], got[1]
			if sparsifierHash(a.Sparsifier) != sparsifierHash(b.Sparsifier) || a.Sharded != b.Sharded || a.TargetMet != b.TargetMet ||
				floatBits(a.VerifiedLambdaMax) != floatBits(b.VerifiedLambdaMax) ||
				floatBits(a.VerifiedLambdaMin) != floatBits(b.VerifiedLambdaMin) ||
				floatBits(a.VerifiedCond) != floatBits(b.VerifiedCond) {
				t.Errorf("%s: WithShards(%d) (sharded=%v κ=%v) differs from WithMode(%v) (sharded=%v κ=%v)",
					gr.name, c.k, a.Sharded, a.VerifiedCond, c.mode, b.Sharded, b.VerifiedCond)
			}
		}
	}
	for _, k := range []int{2, -1} {
		if _, err := graphspar.New(graphspar.WithSigma2(50), graphspar.WithShards(k)); !errors.Is(err, graphspar.ErrBadShards) {
			t.Errorf("WithShards(%d): err = %v, want ErrBadShards", k, err)
		}
	}
}

// TestFacadeVerificationSingleShot pins the single-shot certificate: a
// plain Run carries the independent Lanczos check, and the deprecated
// WithVerification, now a no-op, changes no bit of the result.
func TestFacadeVerificationSingleShot(t *testing.T) {
	g, err := gen.Grid2D(15, 15, gen.UniformWeights, 7)
	if err != nil {
		t.Fatal(err)
	}
	var got []*graphspar.Result
	for _, extra := range [][]graphspar.Option{nil, {graphspar.WithVerification(0)}, {graphspar.WithVerification(5)}} {
		s, err := graphspar.New(append([]graphspar.Option{
			graphspar.WithSigma2(50), graphspar.WithSeed(7), graphspar.WithMode(graphspar.ModeSingleShot),
		}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if res.VerifiedCond <= 0 || res.VerifiedCond > 50 {
			t.Errorf("%d extra options: verified κ = %v outside (0, 50]", len(extra), res.VerifiedCond)
		}
		got = append(got, res)
	}
	for _, res := range got[1:] {
		if sparsifierHash(res.Sparsifier) != sparsifierHash(got[0].Sparsifier) || res.VerifiedCond != got[0].VerifiedCond {
			t.Errorf("WithVerification changed the result: κ %v vs %v", res.VerifiedCond, got[0].VerifiedCond)
		}
	}
}

// TestFacadeSingleVertex: a one-vertex graph is its own sparsifier with
// κ = 1 on every plan, and a stream over it builds, rejects an update it
// cannot hold and rebuilds with the same trivial certificate.
func TestFacadeSingleVertex(t *testing.T) {
	g, err := graph.New(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, opts := range [][]graphspar.Option{
		{graphspar.WithMode(graphspar.ModeSingleShot)},
		{graphspar.WithMode(graphspar.ModeSharded)},
		{graphspar.WithMode(graphspar.ModeMultilevel)},
	} {
		s, err := graphspar.New(append(opts, graphspar.WithSigma2(50))...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(ctx, g)
		if err != nil {
			t.Fatalf("%d options: %v", len(opts), err)
		}
		if res.Sparsifier.N() != 1 || res.Sparsifier.M() != 0 || !res.TargetMet ||
			res.SigmaSqAchieved != 1 || res.VerifiedCond != 1 {
			t.Errorf("sharded=%v multilevel=%v: |V|=%d |E|=%d σ²=%v κ=%v met=%v, want the graph itself with κ = 1",
				res.Sharded, res.Multilevel, res.Sparsifier.N(), res.Sparsifier.M(),
				res.SigmaSqAchieved, res.VerifiedCond, res.TargetMet)
		}
	}

	s, err := graphspar.New(graphspar.WithSigma2(50))
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Maintain(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(ctx, []graphspar.Update{graphspar.Insert(0, 1, 1)}); err == nil {
		t.Error("insert to a vertex the graph lacks: want an error")
	}
	if err := st.Apply(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Rebuild(ctx); err != nil {
		t.Fatal(err)
	}
	if st.Sparsifier().N() != 1 || st.Sparsifier().M() != 0 || st.Cond() != 1 || !st.TargetMet() {
		t.Errorf("stream: |V|=%d |E|=%d κ=%v met=%v, want the graph itself with κ = 1",
			st.Sparsifier().N(), st.Sparsifier().M(), st.Cond(), st.TargetMet())
	}
}
