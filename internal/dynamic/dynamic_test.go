package dynamic_test

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"graphspar/internal/core"
	"graphspar/internal/dynamic"
	"graphspar/internal/engine"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/lsst"
	"graphspar/internal/params"
	"graphspar/internal/testkit"
	"graphspar/internal/vecmath"
)

// checkInvariant is the per-batch invariant of every suite in this
// package: the shared testkit one (connected subgraph, weights mirrored,
// sorted edge lists, verified κ within the σ² target) plus what only this
// package can see — the tree keys are n−1 sparsifier edges spanning it, and
// the standing factor is a factor of Sparsifier().
func checkInvariant(t *testing.T, m *dynamic.Maintainer, sigmaSq float64) {
	t.Helper()
	testkit.AssertInvariant(t, m, sigmaSq)
	if err := m.CheckTree(); err != nil {
		t.Fatalf("spanning-tree keys: %v", err)
	}
	if lag, err := m.FactorLag(); err != nil || lag > 1e-8 {
		t.Fatalf("factor out of step with the sparsifier: solve differs by %.3g (err %v)", lag, err)
	}
}

func newMaintainer(t *testing.T, g *graph.Graph, sigmaSq float64) *dynamic.Maintainer {
	t.Helper()
	m, err := dynamic.New(context.Background(), g, engine.Options{Sparsify: core.Options{SigmaSq: sigmaSq, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// treeEdges lists the sparsifier edges in m's spanning-tree key set.
func treeEdges(m *dynamic.Maintainer) []graph.Edge {
	var out []graph.Edge
	for _, e := range m.Sparsifier().Edges() {
		if m.HasTreeKey(e.U, e.V) {
			out = append(out, e)
		}
	}
	return out
}

func TestApplyMixedBatchKeepsCertificate(t *testing.T) {
	g, err := gen.Grid2D(14, 14, gen.UniformWeights, 5)
	if err != nil {
		t.Fatal(err)
	}
	const sigmaSq = 50
	m := newMaintainer(t, g, sigmaSq)
	checkInvariant(t, m, sigmaSq)

	// Insert a long-range edge, reweight an existing one, delete another.
	victim := g.Edge(g.M() - 1)
	rew := g.Edge(0)
	batch := []dynamic.Update{
		dynamic.Insert(0, g.N()-1, 1.0),
		dynamic.Reweight(rew.U, rew.V, rew.W*3),
		dynamic.Delete(victim.U, victim.V),
	}
	if err := m.Apply(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, m, sigmaSq)

	if !m.Graph().HasEdge(0, g.N()-1) {
		t.Fatal("inserted edge missing from graph")
	}
	if m.Graph().HasEdge(victim.U, victim.V) {
		t.Fatal("deleted edge still present")
	}
	st := m.Stats()
	if st.Applies != 1 || st.Updates != 3 {
		t.Fatalf("stats = %+v, want 1 apply / 3 updates", st)
	}
}

func TestDeleteTreeEdgeTriggersRepair(t *testing.T) {
	g, err := gen.Grid2D(10, 10, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	const sigmaSq = 80
	m := newMaintainer(t, g, sigmaSq)
	te := treeEdges(m)[0]
	if err := m.Apply(context.Background(), []dynamic.Update{dynamic.Delete(te.U, te.V)}); err != nil {
		t.Fatal(err)
	}
	if m.Stats().TreeRepairs != 1 {
		t.Fatalf("TreeRepairs = %d, want 1", m.Stats().TreeRepairs)
	}
	checkInvariant(t, m, sigmaSq)
}

func TestBridgeDeleteRejectedAtomically(t *testing.T) {
	g, err := gen.Barbell(6, 3, gen.UniformWeights, 2)
	if err != nil {
		t.Fatal(err)
	}
	const sigmaSq = 30
	m := newMaintainer(t, g, sigmaSq)
	before := m.Graph().M()
	condBefore := m.Cond()

	// Path edges of Barbell(6,3) are bridges; (5,6) is the first one. The
	// insert shortcuts the later path segment, so (5,6) stays a bridge
	// within the batch and the whole batch must be rejected.
	err = m.Apply(context.Background(), []dynamic.Update{
		dynamic.Insert(6, 8, 1), // valid part of the batch
		dynamic.Delete(5, 6),    // bridge: must reject everything
	})
	if !errors.Is(err, dynamic.ErrWouldDisconnect) {
		t.Fatalf("err = %v, want ErrWouldDisconnect", err)
	}
	if m.Graph().M() != before || m.Cond() != condBefore {
		t.Fatal("failed batch must leave the maintainer unchanged")
	}
	if m.Graph().HasEdge(6, 8) {
		t.Fatal("batch must be atomic: insert from the failed batch applied")
	}
}

func TestBatchValidationErrors(t *testing.T) {
	g, err := gen.Grid2D(6, 6, gen.UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := newMaintainer(t, g, 100)
	ctx := context.Background()
	e0 := g.Edge(0)

	cases := []struct {
		name  string
		batch []dynamic.Update
		want  error
	}{
		{"insert existing", []dynamic.Update{dynamic.Insert(e0.U, e0.V, 1)}, dynamic.ErrEdgeExists},
		{"delete missing", []dynamic.Update{dynamic.Delete(0, 35)}, dynamic.ErrEdgeMissing},
		{"reweight missing", []dynamic.Update{dynamic.Reweight(0, 35, 2)}, dynamic.ErrEdgeMissing},
		{"self loop", []dynamic.Update{dynamic.Insert(3, 3, 1)}, dynamic.ErrBadUpdate},
		{"range", []dynamic.Update{dynamic.Insert(0, 99, 1)}, dynamic.ErrBadUpdate},
		{"bad weight", []dynamic.Update{dynamic.Insert(0, 35, -1)}, dynamic.ErrBadUpdate},
		{"duplicate edge in batch", []dynamic.Update{
			dynamic.Insert(0, 35, 1), dynamic.Reweight(0, 35, 2),
		}, dynamic.ErrBadUpdate},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := m.Apply(ctx, c.batch); !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
	if st := m.Stats(); st.Applies != 0 {
		t.Fatalf("failed batches must not count as applies, got %+v", st)
	}
}

// pastDriftBudget builds one batch of fresh chords whose churn (1 per
// insert) just exceeds what is left of m's drift budget — a quarter of
// the edge count at the last build — so applying it must force a rebuild.
func pastDriftBudget(m *dynamic.Maintainer, rng *vecmath.RNG) []dynamic.Update {
	g, st := m.Graph(), m.Stats()
	taken := make(map[[2]int]bool)
	var batch []dynamic.Update
	for float64(len(batch)) <= st.DriftBudget-st.Drift {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u > v {
			u, v = v, u
		}
		if u == v || g.HasEdge(u, v) || taken[[2]int{u, v}] {
			continue
		}
		taken[[2]int{u, v}] = true
		batch = append(batch, dynamic.Insert(u, v, 0.5+rng.Float64()))
	}
	return batch
}

func TestDriftBudgetForcesRebuild(t *testing.T) {
	g, err := gen.Grid2D(8, 8, gen.UniformWeights, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := newMaintainer(t, g, 60)
	if want := 0.25 * float64(g.M()); m.Stats().DriftBudget != want {
		t.Fatalf("DriftBudget = %v, want %v (a quarter of the %d edges built on)", m.Stats().DriftBudget, want, g.M())
	}
	// One insert is far inside the budget; a batch past it is not.
	if err := m.Apply(context.Background(), []dynamic.Update{dynamic.Insert(0, 63, 2)}); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Rebuilds != 0 || st.Drift != 1 {
		t.Fatalf("after one insert: Rebuilds = %d, Drift = %v, want 0 and 1", st.Rebuilds, st.Drift)
	}
	if err := m.Apply(context.Background(), pastDriftBudget(m, vecmath.NewRNG(5))); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want exactly 1 (deterministic forced rebuild)", st.Rebuilds)
	}
	if st.Drift != 0 {
		t.Fatalf("drift must reset after a rebuild, got %v", st.Drift)
	}
	checkInvariant(t, m, 60)
}

func TestExplicitRebuild(t *testing.T) {
	g, err := gen.Grid2D(8, 8, gen.UniformWeights, 9)
	if err != nil {
		t.Fatal(err)
	}
	m := newMaintainer(t, g, 60)
	if err := m.Rebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1", m.Stats().Rebuilds)
	}
	checkInvariant(t, m, 60)
}

func TestShardedRebuildPath(t *testing.T) {
	g, err := gen.Grid2D(16, 16, gen.UniformWeights, 8)
	if err != nil {
		t.Fatal(err)
	}
	const sigmaSq = 60
	m, err := dynamic.New(context.Background(), g, engine.Options{Sparsify: core.Options{SigmaSq: sigmaSq, Seed: 1}, Mode: params.ModeSharded, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, m, sigmaSq)
	if err := m.Apply(context.Background(), []dynamic.Update{dynamic.Insert(0, g.N()-1, 1)}); err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, m, sigmaSq)
}

func TestDisconnectedInputRejected(t *testing.T) {
	two := graph.MustNew(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if _, err := dynamic.New(context.Background(), two, engine.Options{Sparsify: core.Options{SigmaSq: 50}}); !errors.Is(err, graph.ErrDisconnected) {
		t.Fatalf("err = %v, want graph.ErrDisconnected", err)
	}
}

func TestApplyToGraphEmptyBatch(t *testing.T) {
	g, err := gen.Path(4)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := dynamic.ApplyToGraph(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g2 != g {
		t.Fatal("empty batch must return the graph unchanged")
	}
}

// TestBatchedVerifyEquivalence thins the sparsifier by the same deletions
// through both settle routes — batched certificate verification (one
// Lanczos check per settle pass; batches of at least 64 updates take it)
// and per-round verification (smaller batches) — asserting both end
// within the σ² target and that batching actually reduced the number of
// Lanczos verifications (the batch=256 regime's dominant cost).
func TestBatchedVerifyEquivalence(t *testing.T) {
	const sigmaSq = 50
	g, err := gen.Grid2D(16, 16, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	batched, perRound := newMaintainer(t, g, sigmaSq), newMaintainer(t, g, sigmaSq)

	// Delete a swath of off-tree sparsifier edges: no backbone repairs
	// fire, the sparsifier thins out, the certificate drifts past the
	// safety margin, and the settle pass runs real re-filter rounds in
	// both maintainers.
	var batch []dynamic.Update
	for _, e := range batched.Sparsifier().Edges() {
		if len(batch) >= 40 {
			break
		}
		if batched.HasTreeKey(e.U, e.V) {
			continue
		}
		// Keep the graph connected (off-tree edges of a grid are never
		// bridges, but check via a trial application to stay robust).
		trial := append(append([]dynamic.Update(nil), batch...), dynamic.Delete(e.U, e.V))
		if _, err := dynamic.ApplyToGraph(g, trial); err != nil {
			continue
		}
		batch = append(batch, dynamic.Delete(e.U, e.V))
	}
	if len(batch) < 8 {
		t.Fatalf("only %d deletable off-tree sparsifier edges found", len(batch))
	}

	// The batched route gets the same deletions padded to 64 updates with
	// reweights that change nothing: edges outside the sparsifier, set to
	// the weight they already have.
	padded := append([]dynamic.Update(nil), batch...)
	for _, e := range g.Edges() {
		if len(padded) == 64 {
			break
		}
		if !batched.Sparsifier().HasEdge(e.U, e.V) {
			padded = append(padded, dynamic.Reweight(e.U, e.V, e.W))
		}
	}
	if len(padded) < 64 {
		t.Fatalf("only %d updates after padding; the batched route needs 64", len(padded))
	}
	if err := batched.Apply(context.Background(), padded); err != nil {
		t.Fatal(err)
	}
	if err := perRound.Apply(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, batched, sigmaSq)
	checkInvariant(t, perRound, sigmaSq)

	bs, ps := batched.Stats(), perRound.Stats()
	if bs.BatchedSettles == 0 {
		t.Fatalf("batched maintainer never entered batched settle: %+v", bs)
	}
	if ps.BatchedSettles != 0 {
		t.Fatalf("per-round maintainer entered batched settle: %+v", ps)
	}
	// Both re-filtered; the batched maintainer must have paid fewer
	// verifications for at least as many admission rounds.
	if bs.Refilters == 0 || ps.Refilters == 0 {
		t.Skipf("no refilter rounds ran (batched=%d per-round=%d); batch too gentle", bs.Refilters, ps.Refilters)
	}
	if ps.Refilters > 1 && bs.Verifies >= ps.Verifies {
		t.Errorf("batched verifies = %d, want fewer than per-round %d (refilters %d vs %d)",
			bs.Verifies, ps.Verifies, bs.Refilters, ps.Refilters)
	}
}

// kruskalHeaviestFirst is the oracle for the repair sweep: starting from
// the forest in uf, take g's edges in the total order (weight desc, edge id
// asc) while they join two components.
func kruskalHeaviestFirst(g *graph.Graph, uf *lsst.UnionFind) []graph.Edge {
	order := g.EdgesCopy() // id order; a stable sort keeps it within a weight
	sort.SliceStable(order, func(a, b int) bool { return order[a].W > order[b].W })
	var taken []graph.Edge
	for _, e := range order {
		if uf.Union(e.U, e.V) {
			taken = append(taken, e)
		}
	}
	return taken
}

// TestMultiRemovalRepairBreaksTiesByEdgeID pins the repair edges the
// heaviest-first sweep picks when candidates tie — all of them on a
// unit-weight grid, half of them on a grid with two weight classes (the
// case an unstable sort by weight alone visibly scrambles): the order is
// (weight desc, edge id asc), not whatever the sort leaves first.
func TestMultiRemovalRepairBreaksTiesByEdgeID(t *testing.T) {
	unit, err := gen.Grid2D(9, 9, gen.UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	two := unit.EdgesCopy()
	for i := range two {
		two[i].W = float64(1 + (7*i)%2)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"unit weights", unit}, {"two weight classes", graph.MustNew(unit.N(), two)}} {
		t.Run(c.name, func(t *testing.T) {
			g := c.g
			const sigmaSq = 80
			m := newMaintainer(t, g, sigmaSq)
			before := treeEdges(m)
			if len(before) != g.N()-1 {
				t.Fatalf("%d tree edges, want %d", len(before), g.N()-1)
			}
			// Three tree edges spread over the list; a grid survives them.
			removed := []graph.Edge{before[3], before[len(before)/2], before[len(before)-4]}
			var batch []dynamic.Update
			for _, e := range removed {
				batch = append(batch, dynamic.Delete(e.U, e.V))
			}
			g2, err := dynamic.ApplyToGraph(g, batch)
			if err != nil {
				t.Fatal(err)
			}
			uf := lsst.NewUnionFind(g.N())
			for _, e := range before {
				if e != removed[0] && e != removed[1] && e != removed[2] {
					uf.Union(e.U, e.V)
				}
			}
			want := kruskalHeaviestFirst(g2, uf)
			if len(want) != len(removed) {
				t.Fatalf("oracle found %d repair edges for %d removals", len(want), len(removed))
			}

			if err := m.Apply(context.Background(), batch); err != nil {
				t.Fatal(err)
			}
			if m.Stats().Rebuilds != 0 {
				t.Fatalf("batch forced a rebuild; the repair was not exercised: %+v", m.Stats())
			}
			was := make(map[graph.Edge]bool)
			for _, e := range before {
				was[e] = true
			}
			for _, e := range want {
				if !m.HasTreeKey(e.U, e.V) || was[e] {
					t.Fatalf("repair edge %v not adopted; want exactly %v (ties break by edge id)", e, want)
				}
			}
			checkInvariant(t, m, sigmaSq) // n−1 keys: the three wanted ones are the only new ones

			// The sweep on its own, from bare vertices.
			sweep, ok := dynamic.ReconnectHeaviest(g, lsst.NewUnionFind(g.N()))
			if kruskal := kruskalHeaviestFirst(g, lsst.NewUnionFind(g.N())); !ok || !reflect.DeepEqual(sweep, kruskal) {
				t.Fatalf("sweep took %v (ok=%v), want %v", sweep, ok, kruskal)
			}
		})
	}
}

// TestApplyGuardsTreeKeyCount reaches the commit-point guard that replaced
// the rooted-tree rebuild's accidental check: with the key set one edge
// short of a spanning tree, Apply must refuse the batch and leave the
// maintainer exactly as it was.
func TestApplyGuardsTreeKeyCount(t *testing.T) {
	g, err := gen.Grid2D(6, 6, gen.UniformWeights, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := newMaintainer(t, g, 60)
	te := treeEdges(m)[0]
	m.DropTreeKey(te.U, te.V)
	if err := m.CheckTree(); err == nil {
		t.Fatal("CheckTree accepted a key set one edge short")
	}
	gBefore, pBefore, condBefore := m.Graph(), m.Sparsifier(), m.Cond()
	e := g.Edge(g.M() - 1)
	err = m.Apply(context.Background(), []dynamic.Update{dynamic.Reweight(e.U, e.V, 2*e.W)})
	if err == nil {
		t.Fatal("Apply committed on a broken spanning-tree key set")
	}
	if m.Graph() != gBefore || m.Sparsifier() != pBefore || m.Cond() != condBefore || m.Stats().Applies != 0 {
		t.Fatalf("refused batch must leave the maintainer untouched (err %v)", err)
	}
}

// TestSettleRoutesKeepSparsifierAndFactorInStep thins the sparsifier batch
// after batch through both settle routes. Re-filter admissions are merged
// into Sparsifier() every round while the batched route defers the factor
// update to the end of the pass; either way, when Apply returns the
// standing factor must be a factor of exactly Sparsifier(), the tree keys
// must span it, and the certificate must hold — checked after every batch.
func TestSettleRoutesKeepSparsifierAndFactorInStep(t *testing.T) {
	const sigmaSq = 50
	g, err := gen.Grid2D(20, 20, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range []struct {
		name string
		size int // 64 and up settle batched
	}{{"per-round", 4}, {"batched", 64}} {
		t.Run(route.name, func(t *testing.T) {
			m := newMaintainer(t, g, sigmaSq)
			for i := 0; i < 5; i++ {
				// Delete four off-tree sparsifier edges — no tree edge goes,
				// so G stays connected — and pad the batched route's batch
				// with reweights that change nothing: edges outside the
				// sparsifier, set to the weight they already have.
				var batch []dynamic.Update
				for _, e := range m.Sparsifier().Edges() {
					if len(batch) < 4 && !m.HasTreeKey(e.U, e.V) {
						batch = append(batch, dynamic.Delete(e.U, e.V))
					}
				}
				for _, e := range m.Graph().Edges() {
					if len(batch) < route.size && !m.Sparsifier().HasEdge(e.U, e.V) {
						batch = append(batch, dynamic.Reweight(e.U, e.V, e.W))
					}
				}
				if len(batch) != route.size {
					t.Fatalf("batch %d: built %d of %d updates", i, len(batch), route.size)
				}
				if err := m.Apply(context.Background(), batch); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				checkInvariant(t, m, sigmaSq)
			}
			st := m.Stats()
			if st.Refilters == 0 {
				t.Fatalf("no re-filter round ran; batches too gentle: %+v", st)
			}
			if batched := route.size >= 64; (st.BatchedSettles > 0) != batched {
				t.Fatalf("BatchedSettles = %d on the %s route", st.BatchedSettles, route.name)
			}
		})
	}
}
