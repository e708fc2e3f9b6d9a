package multilevel_test

// The hierarchy and interpolation code is exercised the way production
// drives it: through the batch pipeline's multilevel plan.

import (
	"context"
	"testing"

	"graphspar/internal/core"
	"graphspar/internal/engine"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/params"
	"graphspar/internal/testkit"
)

const sigma = 50.0

// coarsened returns the testkit families scaled past the engine's
// coarsest-size floor (512 vertices), so the multilevel plan builds a
// real hierarchy on each.
func coarsened() []testkit.Case {
	return []testkit.Case{
		{Name: "grid", Build: func(seed uint64) (*graph.Graph, error) {
			return gen.Grid2D(24, 24, gen.UniformWeights, seed)
		}},
		{Name: "sbm", Build: func(seed uint64) (*graph.Graph, error) {
			g, _, err := gen.SBM(4, 144, 0.06, 0.005, seed)
			return g, err
		}},
		{Name: "barbell", Build: func(seed uint64) (*graph.Graph, error) {
			return gen.Barbell(30, 500, gen.UniformWeights, seed)
		}},
	}
}

// run executes the multilevel plan.
func run(ctx context.Context, g *graph.Graph, opt engine.Options) (*engine.Result, error) {
	opt.Mode = params.ModeMultilevel
	return engine.Run(ctx, g, opt)
}

// requireSubgraph fails unless p is a subgraph of g with original weights.
func requireSubgraph(t *testing.T, g, p *graph.Graph) {
	t.Helper()
	idx := g.EdgeIndex()
	for _, e := range p.Edges() {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		id, ok := idx[[2]int{u, v}]
		if !ok {
			t.Fatalf("sparsifier edge (%d,%d) not in input", u, v)
		}
		if g.Edge(id).W != e.W {
			t.Fatalf("sparsifier edge (%d,%d) weight %v != input %v", u, v, e.W, g.Edge(id).W)
		}
	}
}

// TestCertificateOnHarness is the property test of the plan: on every
// testkit family, a genuinely coarsened run must end with an
// independently verified κ(L_G, L_P) ≤ σ² on the original graph.
func TestCertificateOnHarness(t *testing.T) {
	for _, tc := range coarsened() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			g, err := tc.Build(7)
			if err != nil {
				t.Fatal(err)
			}
			res, err := run(context.Background(), g, engine.Options{Sparsify: core.Options{SigmaSq: sigma, Seed: 7}})
			if err != nil {
				t.Fatal(err)
			}
			if res.CoarsenDepth < 2 {
				t.Fatalf("expected a real hierarchy, got depth %d", res.CoarsenDepth)
			}
			if len(res.Levels) != res.CoarsenDepth {
				t.Fatalf("Levels has %d entries for depth %d", len(res.Levels), res.CoarsenDepth)
			}
			if !res.TargetMet {
				t.Fatalf("target unmet: verified κ = %v > σ² = %v", res.VerifiedCond, sigma)
			}
			if res.VerifiedCond <= 0 || res.VerifiedCond > sigma {
				t.Fatalf("verified κ = %v outside (0, %v]", res.VerifiedCond, sigma)
			}
			if err := res.Sparsifier.RequireConnected(); err != nil {
				t.Fatalf("sparsifier disconnected: %v", err)
			}
			requireSubgraph(t, g, res.Sparsifier)

			cond, err := testkit.VerifyCond(g, res.Sparsifier, 99)
			if err != nil {
				t.Fatal(err)
			}
			if cond > sigma {
				t.Fatalf("independent κ = %v > σ² = %v", cond, sigma)
			}

			// Per-level bookkeeping: the finest entry is the final result.
			fin := res.Levels[0]
			if fin.Level != 0 || fin.Vertices != g.N() || fin.Edges != g.M() {
				t.Fatalf("finest level stats describe the wrong graph: %+v", fin)
			}
			if fin.Kept != res.Sparsifier.M() {
				t.Fatalf("finest Kept = %d, sparsifier has %d edges", fin.Kept, res.Sparsifier.M())
			}
			if fin.TreeEdges != g.N()-1 {
				t.Fatalf("finest backbone has %d edges, want %d", fin.TreeEdges, g.N()-1)
			}
		})
	}
}

// TestDegenerateBitIdenticalToSingleShot pins the equivalence the facade
// documents: an input at or below the coarsest-size floor (every testkit
// family is) never coarsens, and the multilevel plan must reproduce the
// single-shot pipeline bit for bit.
func TestDegenerateBitIdenticalToSingleShot(t *testing.T) {
	for _, tc := range testkit.Cases() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			g, err := tc.Build(3)
			if err != nil {
				t.Fatal(err)
			}
			copt := core.Options{SigmaSq: sigma, Seed: 11}
			want, err := core.Sparsify(g, copt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := run(context.Background(), g, engine.Options{Sparsify: copt})
			if err != nil {
				t.Fatal(err)
			}
			if res.CoarsenDepth != 1 {
				t.Fatalf("depth %d, want 1", res.CoarsenDepth)
			}
			if res.Sparsifier.ContentHash() != want.Sparsifier.ContentHash() {
				t.Fatalf("sparsifier differs from single-shot (%d vs %d edges)",
					res.Sparsifier.M(), want.Sparsifier.M())
			}
			if !res.TargetMet {
				t.Fatalf("target unmet, verified κ = %v", res.VerifiedCond)
			}
		})
	}
}

// TestDeterministicPerSeed: same seed, same graph → same sparsifier;
// different seed → independent run (usually different, never invalid).
func TestDeterministicPerSeed(t *testing.T) {
	g, err := coarsened()[0].Build(5)
	if err != nil {
		t.Fatal(err)
	}
	opt := engine.Options{Sparsify: core.Options{SigmaSq: sigma, Seed: 13}}
	a, err := run(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sparsifier.ContentHash() != b.Sparsifier.ContentHash() {
		t.Fatal("same seed produced different sparsifiers")
	}
	if a.CoarsenDepth != b.CoarsenDepth {
		t.Fatalf("same seed produced different depths: %d vs %d", a.CoarsenDepth, b.CoarsenDepth)
	}
}

// TestOptionValidation covers the typed rejections.
func TestOptionValidation(t *testing.T) {
	g, err := testkit.Cases()[0].Build(1)
	if err != nil {
		t.Fatal(err)
	}
	bad := []engine.Options{
		{},                                     // missing σ²
		{Sparsify: core.Options{SigmaSq: 0.5}}, // σ² ≤ 1
	}
	for i, opt := range bad {
		if _, err := run(context.Background(), g, opt); err == nil {
			t.Fatalf("case %d: invalid options accepted", i)
		}
	}
}

// TestCancellation: an already-cancelled context stops the run.
func TestCancellation(t *testing.T) {
	g, err := coarsened()[0].Build(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := run(ctx, g, engine.Options{Sparsify: core.Options{SigmaSq: sigma}}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}
