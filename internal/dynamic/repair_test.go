package dynamic_test

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"graphspar/internal/dynamic"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/lsst"
	"graphspar/internal/vecmath"
)

// reconnectHeaviestRef is the repair sweep as it was before it filtered
// to crossing edges: sort every edge id of g by (weight desc, id asc),
// then union in that order until one component is left.
func reconnectHeaviestRef(g *graph.Graph, uf *lsst.UnionFind) (taken []graph.Edge, ok bool) {
	ids := make([]int, g.M())
	for i := range ids {
		ids[i] = i
	}
	slices.SortFunc(ids, func(a, b int) int {
		if wa, wb := g.Edge(a).W, g.Edge(b).W; wa != wb {
			return cmp.Compare(wb, wa)
		}
		return cmp.Compare(a, b)
	})
	for _, id := range ids {
		if uf.Count() == 1 {
			break
		}
		if e := g.Edge(id); uf.Union(e.U, e.V) {
			taken = append(taken, e)
		}
	}
	return taken, uf.Count() == 1
}

// TestReconnectHeaviestMatchesWholeListSort runs the sweep and the
// whole-edge-list oracle from the same forest and requires the same
// edges, element for element, and the same verdict. The forests are a
// maximum-weight spanning tree of g with 2–6 of its edges deleted from
// both tree and graph (3–7 parts), on unit weights — every tie falls to
// the edge id —, two weight classes and random weights; plus graphs that
// cannot reconnect.
func TestReconnectHeaviestMatchesWholeListSort(t *testing.T) {
	unit, err := gen.Grid2D(14, 14, gen.UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	random, err := gen.Grid2D(14, 14, gen.UniformWeights, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two weight classes: half the edges tie with each other, the case an
	// unstable sort by weight alone visibly scrambles.
	two := unit.EdgesCopy()
	for i := range two {
		two[i].W = float64(1 + (7*i)%2)
	}
	twoClass := graph.MustNew(unit.N(), two)
	sbm, _, err := gen.SBM(3, 40, 0.2, 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := vecmath.NewRNG(11)
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"grid unit", unit}, {"grid two classes", twoClass}, {"grid random", random}, {"sbm unit", sbm}} {
		tree, err := lsst.MaxWeightSpanningTree(c.g)
		if err != nil {
			t.Fatal(err)
		}
		for cuts := 2; cuts <= 6; cuts++ {
			for rep := 0; rep < 8; rep++ {
				name := fmt.Sprintf("%s/cuts%d/rep%d", c.name, cuts, rep)
				cut := make(map[int]bool, cuts)
				for len(cut) < cuts {
					cut[tree[rng.Intn(len(tree))]] = true
				}
				kept := make([]graph.Edge, 0, c.g.M())
				for id, e := range c.g.Edges() {
					if !cut[id] {
						kept = append(kept, e)
					}
				}
				g2 := graph.MustNew(c.g.N(), kept)
				forest := func() *lsst.UnionFind {
					uf := lsst.NewUnionFind(c.g.N())
					for _, id := range tree {
						if !cut[id] {
							e := c.g.Edge(id)
							uf.Union(e.U, e.V)
						}
					}
					if uf.Count() != cuts+1 {
						t.Fatalf("%s: forest has %d parts, want %d", name, uf.Count(), cuts+1)
					}
					return uf
				}
				checkSweep(t, name, g2, forest(), forest())
			}
		}
	}

	// Cannot reconnect, from bare vertices (every edge crosses): two
	// disjoint grids, and a grid whose corner vertex lost both its edges.
	pair := twoClass.EdgesCopy()
	for _, e := range twoClass.Edges() {
		pair = append(pair, graph.Edge{U: e.U + unit.N(), V: e.V + unit.N(), W: e.W})
	}
	twoGrids := graph.MustNew(2*unit.N(), pair)
	if checkSweep(t, "two grids", twoGrids, lsst.NewUnionFind(twoGrids.N()), lsst.NewUnionFind(twoGrids.N())) {
		t.Fatal("two grids: sweep reported one component")
	}
	corner := make([]graph.Edge, 0, random.M())
	for _, e := range random.Edges() {
		if e.U != 0 {
			corner = append(corner, e)
		}
	}
	isolated := graph.MustNew(random.N(), corner)
	if checkSweep(t, "isolated corner", isolated, lsst.NewUnionFind(isolated.N()), lsst.NewUnionFind(isolated.N())) {
		t.Fatal("isolated corner: sweep reported one component")
	}
}

// checkSweep runs the sweep on uf and the oracle on its twin ref, and
// returns the sweep's verdict.
func checkSweep(t *testing.T, name string, g *graph.Graph, uf, ref *lsst.UnionFind) bool {
	t.Helper()
	want, wantOK := reconnectHeaviestRef(g, ref)
	got, ok := dynamic.ReconnectHeaviest(g, uf)
	if ok != wantOK || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: sweep took %v (ok=%v), whole-list sort took %v (ok=%v)", name, got, ok, want, wantOK)
	}
	if uf.Count() != ref.Count() {
		t.Fatalf("%s: sweep left %d components, oracle %d", name, uf.Count(), ref.Count())
	}
	if ok != g.IsConnected() {
		t.Fatalf("%s: ok=%v on a graph whose connectivity is %v", name, ok, g.IsConnected())
	}
	return ok
}
