package engine

import (
	"context"
	"math"
	"testing"
	"time"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/obs"
	"graphspar/internal/params"
)

// factorCounts runs opt on g under a trace and reports how many "factor"
// phases the run recorded, how many of them sit inside a "verify" phase
// (the certificate factoring P itself), and how many verify phases there
// were. It also checks, per certificate, the rule the hand-off follows: a
// filter loop ends on a factor of its final P exactly when no embedding
// followed its last factorization (an embedding always admits an edge), so
// the certificate factors iff the last loop span before it was an "embed" —
// or no loop ever factored.
func factorCounts(t *testing.T, g *graph.Graph, opt Options) (res *Result, total, inVerify, verifies int) {
	t.Helper()
	tr := obs.NewTrace()
	res, err := Run(obs.WithTrace(context.Background(), tr), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	phases := tr.Phases()
	inside := func(p, outer obs.Phase) bool {
		return p.Start >= outer.Start && p.Start+p.Duration <= outer.Start+outer.Duration
	}
	for _, v := range phases {
		if v.Name != "verify" {
			continue
		}
		verifies++
		nested := 0
		last := "" // the latest factor/embed phase that ended before this certificate
		lastEnd := time.Duration(-1)
		for _, p := range phases {
			if p.Name != string(obs.PhaseFactor) && p.Name != "embed" {
				continue
			}
			if p.Name == string(obs.PhaseFactor) && inside(p, v) {
				nested++
				continue
			}
			if end := p.Start + p.Duration; end <= v.Start && end > lastEnd {
				last, lastEnd = p.Name, end
			}
		}
		want := 0
		if last != string(obs.PhaseFactor) {
			want = 1
		}
		if res.Mode == params.ModeSharded && !refiltered(phases) {
			want = 1 // kept-whole cut: only shards were factored, never the stitched graph
		}
		if nested != want {
			t.Errorf("verify at %v factors P %d times, want %d (last loop span before it: %q)", v.Start, nested, want, last)
		}
		inVerify += nested
	}
	for _, p := range phases {
		if p.Name == string(obs.PhaseFactor) {
			total++
		}
	}
	return res, total, inVerify, verifies
}

func refiltered(phases []obs.Phase) bool {
	for _, p := range phases {
		if p.Name == "refilter" {
			return true
		}
	}
	return false
}

func addingRounds(rounds []core.RoundStats) int {
	n := 0
	for _, r := range rounds {
		if r.Added > 0 {
			n++
		}
	}
	return n
}

// The final P is factored once: every plan whose last filter loop ends on
// a factor of the P it returns certifies with that factor, so a run
// records one "factor" phase fewer than the loop-plus-certificate count it
// had before the hand-off; plans with nothing to hand over factor in the
// certificate as before.
func TestFactorPhasesPerPlan(t *testing.T) {
	grid := gridGraph(t, 40, 40, 1)
	sbm, _, err := gen.SBM(4, 128, 0.15, 0.02, 13)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("single-shot", func(t *testing.T) {
		res, total, inVerify, verifies := factorCounts(t, grid, Options{
			Sparsify: core.Options{SigmaSq: 80, Seed: 1}, Verify: true,
		})
		adding := addingRounds(res.Rounds)
		if adding == 0 {
			t.Fatal("no round added an edge; the case tests nothing")
		}
		// One factorization per adding round, none for the certificate.
		if total != adding || inVerify != 0 || verifies != 1 {
			t.Errorf("factor phases = %d (%d in verify, %d verifies), want %d (0, 1)", total, inVerify, verifies, adding)
		}
	})

	t.Run("tree-meets-target", func(t *testing.T) {
		path, err := gen.Path(50)
		if err != nil {
			t.Fatal(err)
		}
		res, total, inVerify, _ := factorCounts(t, path, Options{
			Sparsify: core.Options{SigmaSq: 80, Seed: 1}, Verify: true,
		})
		if addingRounds(res.Rounds) != 0 {
			t.Fatal("a path has no off-tree edge to add")
		}
		// P is the bare tree: the loop never factored, the certificate must.
		if total != 1 || inVerify != 1 {
			t.Errorf("factor phases = %d (%d in verify), want 1 (1)", total, inVerify)
		}
	})

	t.Run("multilevel", func(t *testing.T) {
		res, total, inVerify, verifies := factorCounts(t, sbm, Options{
			Mode: params.ModeMultilevel, CoarsestSize: 64, Sparsify: core.Options{SigmaSq: 50, Seed: 1}, Verify: true,
		})
		if res.Depth < 2 {
			t.Fatalf("depth %d: the hierarchy never engaged", res.Depth)
		}
		if verifies < res.Depth-1 {
			t.Fatalf("%d certificates for %d finer levels", verifies, res.Depth-1)
		}
		// factorCounts checked each certificate against its loop; at least
		// the final one must have adopted (one phase fewer than before).
		if inVerify >= verifies {
			t.Errorf("all %d certificates factored P themselves (%d factor phases in all)", verifies, total)
		}
	})

	t.Run("multilevel-round-cap", func(t *testing.T) {
		// With this seed the level-0 re-filter is still adding edges when
		// its round cap runs out, so its last factor is of the P before
		// them and the certificate has to factor.
		_, _, inVerify, verifies := factorCounts(t, sbm, Options{
			Mode: params.ModeMultilevel, CoarsestSize: 64, Sparsify: core.Options{SigmaSq: 50, Seed: 3}, Verify: true,
		})
		if verifies != 1 || inVerify != 1 {
			t.Errorf("%d certificates factoring %d times, want 1 and 1", verifies, inVerify)
		}
	})

	t.Run("sharded-small-cut", func(t *testing.T) {
		res, _, inVerify, verifies := factorCounts(t, grid, Options{
			Mode: params.ModeSharded, Shards: 2, Sparsify: core.Options{SigmaSq: 80, Seed: 1}, Verify: true,
		})
		if res.RecoveredCut != res.CutEdges-res.StitchedCut {
			t.Fatal("the grid's cut was re-filtered; the case needs the kept-whole branch")
		}
		if verifies != 1 || inVerify != 1 {
			t.Errorf("%d certificates factoring %d times, want 1 and 1: nothing to hand over", verifies, inVerify)
		}
	})

	t.Run("sharded-big-cut", func(t *testing.T) {
		res, _, inVerify, verifies := factorCounts(t, sbm, Options{
			Mode: params.ModeSharded, Shards: 4, Sparsify: core.Options{SigmaSq: 100, Seed: 3}, Verify: true,
		})
		if res.RecoveredCut >= res.CutEdges-res.StitchedCut {
			t.Fatal("the SBM's cut was kept whole; the case needs the re-filter branch")
		}
		if verifies != 1 || inVerify != 0 {
			t.Errorf("%d certificates factoring %d times, want 1 and 0: the re-filter's factor is adopted", verifies, inVerify)
		}
	})
}

// Who built the factor cannot matter: certify with an adopted solver and
// certify left to factor P itself return the same bits.
func TestCertifyAdoptedMatchesFresh(t *testing.T) {
	g := gridGraph(t, 24, 24, 5)
	sp, err := core.Sparsify(g, core.Options{SigmaSq: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Solver == nil {
		t.Fatal("Sparsify added edges but returned no solver")
	}
	ctx := context.Background()
	adopted, err := Certify(ctx, g, sp.Sparsifier, sp.Solver, 30, 9)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Certify(ctx, g, sp.Sparsifier, nil, 30, 9)
	if err != nil {
		t.Fatal(err)
	}
	// And a solver built without the loop's workspace, as certify does.
	own, err := cholesky.NewLapSolver(sp.Sparsifier)
	if err != nil {
		t.Fatal(err)
	}
	third, err := Certify(ctx, g, sp.Sparsifier, own, 30, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Certificate{fresh, third} {
		if math.Float64bits(c.LambdaMax) != math.Float64bits(adopted.LambdaMax) ||
			math.Float64bits(c.LambdaMin) != math.Float64bits(adopted.LambdaMin) ||
			math.Float64bits(c.Cond) != math.Float64bits(adopted.Cond) {
			t.Fatalf("certificate moved with the factor's builder: adopted (%v, %v, %v), other (%v, %v, %v)",
				adopted.LambdaMax, adopted.LambdaMin, adopted.Cond, c.LambdaMax, c.LambdaMin, c.Cond)
		}
	}
}
