package engine

import (
	"context"
	"errors"
	"testing"

	"graphspar/internal/core"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/params"
)

func gridGraph(t *testing.T, rows, cols int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.Grid2D(rows, cols, gen.UniformWeights, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func sbmGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, _, err := gen.SBM(4, 64, 0.15, 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkStitchInvariants asserts the structural guarantees of a sharded
// result: the sparsifier spans the input, is connected, and contains
// every shard backbone edge.
func checkStitchInvariants(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	if res.Sparsifier.N() != g.N() {
		t.Fatalf("sparsifier has %d vertices, input %d", res.Sparsifier.N(), g.N())
	}
	if !res.Sparsifier.IsConnected() {
		t.Fatal("sharded sparsifier is disconnected")
	}
	if len(res.Labels) != g.N() {
		t.Fatalf("labels length %d != n %d", len(res.Labels), g.N())
	}
	idx := res.Sparsifier.EdgeIndex()
	for _, s := range res.Shards {
		for _, id := range s.EdgeIDs {
			e := g.Edge(id)
			if _, ok := idx[[2]int{e.U, e.V}]; !ok {
				t.Fatalf("shard %d edge %d (%d,%d) missing from stitched sparsifier", s.Shard, id, e.U, e.V)
			}
		}
	}
	// Every kept edge must come from the input with its original weight.
	gidx := g.EdgeIndex()
	for _, e := range res.Sparsifier.Edges() {
		id, ok := gidx[[2]int{e.U, e.V}]
		if !ok {
			t.Fatalf("sparsifier edge (%d,%d) not in input", e.U, e.V)
		}
		if g.Edge(id).W != e.W {
			t.Fatalf("edge (%d,%d) weight changed: %v != %v", e.U, e.V, e.W, g.Edge(id).W)
		}
	}
}

func TestShardedGridInvariants(t *testing.T) {
	g := gridGraph(t, 40, 40, 1)
	const sigma = 80

	single, err := Run(context.Background(), g, Options{
		Sparsify: core.Options{SigmaSq: sigma, Seed: 1}, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Run(context.Background(), g, Options{
		Mode: params.ModeSharded, Shards: 4, Sparsify: core.Options{SigmaSq: sigma, Seed: 1}, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkStitchInvariants(t, g, sharded)
	if sharded.Parts != 4 {
		t.Errorf("parts = %d, want 4", sharded.Parts)
	}
	if sharded.CutEdges == 0 {
		t.Error("grid partition produced no cut edges")
	}
	if sharded.VerifiedCond <= 0 || single.VerifiedCond <= 0 {
		t.Fatalf("verification missing: sharded=%v single=%v", sharded.VerifiedCond, single.VerifiedCond)
	}
	// The acceptance bar: sharding must stay within a constant factor of
	// the single-shot condition number. Small grids overshoot single-shot
	// (κ ≪ σ²), so "within the requested target" also qualifies.
	if sharded.VerifiedCond > 2*single.VerifiedCond && sharded.VerifiedCond > sigma {
		t.Errorf("sharded κ=%.2f: neither within 2x single-shot κ=%.2f nor within target %v",
			sharded.VerifiedCond, single.VerifiedCond, float64(sigma))
	}
}

func TestShardedSBMInvariants(t *testing.T) {
	g := sbmGraph(t)
	single, err := Run(context.Background(), g, Options{
		Sparsify: core.Options{SigmaSq: 100, Seed: 3}, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Run(context.Background(), g, Options{
		Mode: params.ModeSharded, Shards: 4, Sparsify: core.Options{SigmaSq: 100, Seed: 3}, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkStitchInvariants(t, g, sharded)
	// A community graph split by BFS has a big cut, which must exercise
	// the heat re-filter rather than the keep-all shortcut, and the
	// filter must actually thin it.
	if sharded.CutEdges == 0 {
		t.Fatal("SBM partition produced no cut edges")
	}
	if sharded.RecoveredCut >= sharded.CutEdges-sharded.StitchedCut {
		t.Errorf("re-filter kept the whole cut (%d of %d): the batched filter should thin it",
			sharded.RecoveredCut, sharded.CutEdges)
	}
	if sharded.VerifiedCond > 2*single.VerifiedCond && !sharded.TargetMet {
		t.Errorf("sharded κ=%.2f vs single κ=%.2f and target unmet", sharded.VerifiedCond, single.VerifiedCond)
	}
}

func TestSingleShotMatchesCore(t *testing.T) {
	g := gridGraph(t, 16, 16, 5)
	want, err := core.Sparsify(g, core.Options{SigmaSq: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), g, Options{Sparsify: core.Options{SigmaSq: 100, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Sparsifier.M() != want.Sparsifier.M() {
		t.Fatalf("edge counts differ: engine %d vs core %d", got.Sparsifier.M(), want.Sparsifier.M())
	}
	idx := want.Sparsifier.EdgeIndex()
	for _, e := range got.Sparsifier.Edges() {
		if _, ok := idx[[2]int{e.U, e.V}]; !ok {
			t.Fatalf("engine kept (%d,%d), core did not", e.U, e.V)
		}
	}
	if got.Parts != 1 || got.Mode != params.ModeSingleShot || len(got.Rounds) != len(want.Rounds) {
		t.Errorf("single-shot shape: parts=%d mode=%v rounds=%d (core %d)", got.Parts, got.Mode, len(got.Rounds), len(want.Rounds))
	}
}

func TestDeterministicAcrossWorkers(t *testing.T) {
	g := gridGraph(t, 24, 24, 2)
	opts := func(workers int) Options {
		return Options{Mode: params.ModeSharded, Shards: 4, Workers: workers, Sparsify: core.Options{SigmaSq: 90, Seed: 11}}
	}
	a, err := Run(context.Background(), g, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), g, opts(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.Sparsifier.M() != b.Sparsifier.M() {
		t.Fatalf("worker count changed the result: %d vs %d edges", a.Sparsifier.M(), b.Sparsifier.M())
	}
	ai := a.Sparsifier.EdgeIndex()
	for _, e := range b.Sparsifier.Edges() {
		if _, ok := ai[[2]int{e.U, e.V}]; !ok {
			t.Fatalf("edge (%d,%d) differs between worker counts", e.U, e.V)
		}
	}
}

func TestCancellation(t *testing.T) {
	g := gridGraph(t, 32, 32, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, g, Options{Mode: params.ModeSharded, Shards: 4, Sparsify: core.Options{SigmaSq: 50, Seed: 1}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx: err = %v, want context.Canceled", err)
	}
}

func TestMoreShardsThanUsable(t *testing.T) {
	// A tiny path: most parts degenerate to singletons, which carry no
	// shard work; stitching must still span and connect everything.
	edges := make([]graph.Edge, 7)
	for i := range edges {
		edges[i] = graph.Edge{U: i, V: i + 1, W: 1}
	}
	g, err := graph.New(8, edges)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), g, Options{
		Mode: params.ModeSharded, Shards: 8, Sparsify: core.Options{SigmaSq: 10, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkStitchInvariants(t, g, res)
	if res.Sparsifier.M() != g.M() {
		t.Errorf("a tree input must be kept whole: %d of %d edges", res.Sparsifier.M(), g.M())
	}
}

func TestOptionsValidation(t *testing.T) {
	g := gridGraph(t, 8, 8, 1)
	if _, err := Run(context.Background(), g, Options{Mode: params.ModeSharded, Shards: 2}); !errors.Is(err, params.ErrBadSigma2) {
		t.Errorf("missing σ²: err = %v, want ErrBadSigma2", err)
	}
	if _, err := Run(context.Background(), g, Options{Mode: params.ModeSharded, Shards: -3, Sparsify: core.Options{SigmaSq: 50}}); !errors.Is(err, params.ErrBadShards) {
		t.Errorf("negative shards: err = %v, want ErrBadShards", err)
	}
}

// TestRunRejectsDisconnectedGraph is the regression test for the
// connected-graph assumption: a dynamic workload can try to shard a graph
// right after a bridge deletion elsewhere in the stack, and the engine
// must answer with the typed connectivity error rather than panic or
// wedge in the partitioner.
func TestRunRejectsDisconnectedGraph(t *testing.T) {
	two := graph.MustNew(6, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1},
	})
	for _, mode := range []params.Mode{params.ModeSingleShot, params.ModeSharded, params.ModeMultilevel} {
		_, err := Run(context.Background(), two, Options{
			Mode:     mode,
			Shards:   2,
			Sparsify: core.Options{SigmaSq: 50},
		})
		if !errors.Is(err, graph.ErrDisconnected) {
			t.Fatalf("mode=%v: err = %v, want graph.ErrDisconnected", mode, err)
		}
	}
}
