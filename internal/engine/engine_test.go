package engine

import (
	"context"
	"errors"
	"slices"
	"testing"

	"graphspar/internal/core"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/params"
	"graphspar/internal/partition"
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
		Sparsify: core.Options{SigmaSq: sigma, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Run(context.Background(), g, Options{
		Mode: params.ModeSharded, Sparsify: core.Options{SigmaSq: sigma, Seed: 1},
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
		Sparsify: core.Options{SigmaSq: 100, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Run(context.Background(), g, Options{
		Mode: params.ModeSharded, Sparsify: core.Options{SigmaSq: 100, Seed: 3},
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

// TestSelectIsRunWithoutTheStopRule: Select runs the same plan as Run and
// certifies nothing, on both plans the maintainer builds with.
func TestSelectIsRunWithoutTheStopRule(t *testing.T) {
	g := gridGraph(t, 16, 16, 5)
	for _, opt := range []Options{
		{Sparsify: core.Options{SigmaSq: 100, Seed: 9}},
		{Mode: params.ModeSharded, Sparsify: core.Options{SigmaSq: 100, Seed: 9}},
	} {
		run, err := Run(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := Select(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if run.RecoveredCut != sel.RecoveredCut {
			t.Fatalf("%v: the certificate re-filtered, so the plans' outputs cannot be compared", opt.Mode)
		}
		if sel.Sparsifier.M() != run.Sparsifier.M() || sel.SigmaSqEst != run.SigmaSqEst {
			t.Errorf("%v: Select kept %d edges (est %v), Run %d (est %v)", opt.Mode, sel.Sparsifier.M(), sel.SigmaSqEst, run.Sparsifier.M(), run.SigmaSqEst)
		}
		if sel.VerifiedCond != 0 || sel.Timings.Verify != 0 || sel.TargetMet || !(run.VerifiedCond > 0) {
			t.Errorf("%v: Select certified (κ %v, %v) or Run did not (κ %v)", opt.Mode, sel.VerifiedCond, sel.Timings.Verify, run.VerifiedCond)
		}
	}
}

func TestDeterministicAcrossWorkers(t *testing.T) {
	g := gridGraph(t, 24, 24, 2)
	opts := func(workers int) Options {
		return Options{Mode: params.ModeSharded, Workers: workers, Sparsify: core.Options{SigmaSq: 90, Seed: 11}}
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
	_, err := Run(ctx, g, Options{Mode: params.ModeSharded, Sparsify: core.Options{SigmaSq: 50, Seed: 1}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx: err = %v, want context.Canceled", err)
	}
}

func TestMoreShardsThanUsable(t *testing.T) {
	// A tiny path: every part degenerates to a singleton, which carries no
	// shard work; stitching must still span and connect everything.
	edges := make([]graph.Edge, Shards-1)
	for i := range edges {
		edges[i] = graph.Edge{U: i, V: i + 1, W: 1}
	}
	g, err := graph.New(Shards, edges)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), g, Options{
		Mode: params.ModeSharded, Sparsify: core.Options{SigmaSq: 10, Seed: 1},
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
	if _, err := Run(context.Background(), g, Options{Mode: params.ModeSharded}); !errors.Is(err, params.ErrBadSigma2) {
		t.Errorf("missing σ²: err = %v, want ErrBadSigma2", err)
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
			Sparsify: core.Options{SigmaSq: 50},
		})
		if !errors.Is(err, graph.ErrDisconnected) {
			t.Fatalf("mode=%v: err = %v, want graph.ErrDisconnected", mode, err)
		}
	}
}

// TestShardEdgeIDsMatchIndex pins runShard's mapping of each shard's kept
// edges back to global ids (binary search on the input's sorted edge
// list) against a map from every input pair to its id, on a 4-shard grid:
// each task's shard sparsifier is recomputed with runShard's own options
// and looked up in the map, pair by pair, in the same order.
func TestShardEdgeIDsMatchIndex(t *testing.T) {
	g := gridGraph(t, 40, 40, 3)
	opt := Options{Mode: params.ModeSharded, Sparsify: core.Options{SigmaSq: 80, Seed: 1}}
	kw, err := partition.RecursiveBisect(g, Shards, partition.Options{Method: partition.BFS, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := buildTasks(g, kw.Labels, kw.Parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) < 4 {
		t.Fatalf("%d shard tasks, want at least 4", len(tasks))
	}
	idx := g.EdgeIndex()
	for ti, task := range tasks {
		out, err := runShard(context.Background(), g, task, opt, ti)
		if err != nil {
			t.Fatal(err)
		}
		sopt := opt.Sparsify
		sopt.EmbedWorkers = 1
		sopt.Seed = core.DeriveSeed(opt.Sparsify.Seed, ti+1)
		res, err := core.Sparsify(task.sub, sopt)
		if err != nil && !errors.Is(err, core.ErrNoTarget) {
			t.Fatal(err)
		}
		var want []int
		for _, e := range res.Sparsifier.Edges() {
			u, v := task.mapping[e.U], task.mapping[e.V]
			id, ok := idx[[2]int{min(u, v), max(u, v)}]
			if !ok {
				t.Fatalf("task %d kept (%d,%d), which is not in the input", ti, u, v)
			}
			want = append(want, id)
		}
		if !slices.Equal(out.stats.EdgeIDs, want) {
			t.Fatalf("task %d: runShard ids %v, index reference %v", ti, out.stats.EdgeIDs, want)
		}
	}
}
