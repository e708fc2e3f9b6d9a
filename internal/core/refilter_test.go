package core

import (
	"context"
	"slices"
	"testing"

	"graphspar/internal/cholesky"
	"graphspar/internal/gen"
	"graphspar/internal/lsst"
	"graphspar/internal/vecmath"
)

// TestRefilterFactoredExits pins RefilterFactored's two exits on a small
// grid, from the max-weight tree over the off-tree edges: a pass that
// meets the target hands back a factor of exactly the returned p, and a
// pass cap that runs out while admitting edges hands back none, with the
// admitted ids appended to keptIDs in admission order. Neither touches
// its input slices.
func TestRefilterFactoredExits(t *testing.T) {
	g, err := gen.Grid2D(12, 12, gen.UniformWeights, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, treeIDs, offIDs, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	keptIn, candIn := slices.Clone(treeIDs), slices.Clone(offIDs)
	unchanged := func() {
		t.Helper()
		if !slices.Equal(treeIDs, keptIn) || !slices.Equal(offIDs, candIn) {
			t.Fatal("input slices modified")
		}
	}
	opt := Options{SigmaSq: 30, Seed: 1}
	ctx := context.Background()

	t.Run("target met", func(t *testing.T) {
		p, kept, recovered, lmax, lmin, solver, err := RefilterFactored(ctx, g, treeIDs, offIDs, opt, 7)
		unchanged()
		if err != nil {
			t.Fatal(err)
		}
		if recovered == 0 || solver == nil {
			t.Fatalf("recovered %d, solver %v: want edges admitted and the target met", recovered, solver)
		}
		if lmax/lmin > opt.SigmaSq {
			t.Fatalf("estimated σ² %v above the target %v with a factor handed back", lmax/lmin, opt.SigmaSq)
		}
		if len(kept) != len(treeIDs)+recovered || p.M() != len(kept) {
			t.Fatalf("kept %d ids, p has %d edges, want %d", len(kept), p.M(), len(treeIDs)+recovered)
		}
		fresh, err := cholesky.NewLapSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		rng := vecmath.NewRNG(3)
		b := make([]float64, g.N())
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		vecmath.Deflate(b)
		got, want := make([]float64, g.N()), make([]float64, g.N())
		solver.Solve(got, b)
		fresh.Solve(want, b)
		if !slices.Equal(got, want) {
			t.Fatal("handed-back solver's solve differs from a fresh factor of p")
		}
	})

	t.Run("cap runs out", func(t *testing.T) {
		p, kept, recovered, _, _, solver, err := refilter(ctx, g, treeIDs, offIDs, Options{SigmaSq: 2, Seed: 1}, 1, 7)
		unchanged()
		if err != nil {
			t.Fatal(err)
		}
		if recovered == 0 || solver != nil {
			t.Fatalf("recovered %d, solver %v: want edges admitted and no factor", recovered, solver)
		}
		if !slices.Equal(kept[:len(treeIDs)], treeIDs) || len(kept) != len(treeIDs)+recovered {
			t.Fatalf("kept = %v, want keptIDs followed by %d admitted ids", kept, recovered)
		}
		for _, id := range kept[len(treeIDs):] {
			if !slices.Contains(offIDs, id) {
				t.Fatalf("admitted id %d is not a candidate", id)
			}
		}
		want, err := g.SubgraphEdges(kept)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(p.Edges(), want.Edges()) {
			t.Fatal("p is not the subgraph of the kept ids")
		}
	})
}
