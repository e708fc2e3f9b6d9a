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
	"graphspar/internal/testkit/fixture"
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
// maximum-weight spanning tree of g with 1–6 of its edges deleted from
// both tree and graph (2–7 parts), on unit weights — every tie falls to
// the edge id —, two weight classes and random weights; plus graphs that
// cannot reconnect. The known-answer cases follow as tests of their own.
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
	twoClass := fixture.Graph(unit.N(), two)
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
		for cuts := 1; cuts <= 6; cuts++ {
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
				g2 := fixture.Graph(c.g.N(), kept)
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
	twoGrids := fixture.Graph(2*unit.N(), pair)
	if _, ok := checkSweep(t, "two grids", twoGrids, lsst.NewUnionFind(twoGrids.N()), lsst.NewUnionFind(twoGrids.N())); ok {
		t.Fatal("two grids: sweep reported one component")
	}
	corner := make([]graph.Edge, 0, random.M())
	for _, e := range random.Edges() {
		if e.U != 0 {
			corner = append(corner, e)
		}
	}
	isolated := fixture.Graph(random.N(), corner)
	if _, ok := checkSweep(t, "isolated corner", isolated, lsst.NewUnionFind(isolated.N()), lsst.NewUnionFind(isolated.N())); ok {
		t.Fatal("isolated corner: sweep reported one component")
	}
}

// TestReconnectHeaviestPicksHeaviestCrossingEdge: the path 0-1-2-3 lost
// its middle edge, leaving {0,1} | {2,3} crossed by (0,2) w=5 and (1,3)
// w=9; the sweep takes the w=9 edge alone.
func TestReconnectHeaviestPicksHeaviestCrossingEdge(t *testing.T) {
	g := fixture.Graph(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}, {U: 0, V: 2, W: 5}, {U: 1, V: 3, W: 9},
	})
	forest := [][2]int{{0, 1}, {2, 3}}
	got, ok := checkSweep(t, "heaviest crossing", g, forestOf(4, forest), forestOf(4, forest))
	if want := []graph.Edge{{U: 1, V: 3, W: 9}}; !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("sweep took %v (ok=%v), want %v (ok=true)", got, ok, want)
	}
}

// TestReconnectHeaviestBridgeFails: a barbell whose bridge (2,3) is
// deleted from graph and tree stays in two parts, so the sweep takes
// nothing and fails.
func TestReconnectHeaviestBridgeFails(t *testing.T) {
	g, err := gen.Barbell(3, 1, gen.UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	bridge := g.EdgeIndex()[[2]int{2, 3}]
	tree, err := lsst.MaxWeightSpanningTree(g)
	if err != nil {
		t.Fatal(err)
	}
	var forest [][2]int
	for _, id := range tree {
		if id != bridge {
			e := g.Edge(id)
			forest = append(forest, [2]int{e.U, e.V})
		}
	}
	kept := make([]graph.Edge, 0, g.M()-1)
	for id, e := range g.Edges() {
		if id != bridge {
			kept = append(kept, e)
		}
	}
	g2 := fixture.Graph(g.N(), kept)
	got, ok := checkSweep(t, "deleted bridge", g2, forestOf(g.N(), forest), forestOf(g.N(), forest))
	if ok || got != nil {
		t.Fatalf("sweep took %v (ok=%v), want nothing (ok=false)", got, ok)
	}
}

// TestReconnectHeaviestAlreadyConnected: a forest that already spans the
// triangle needs no repair, so the sweep takes nothing and succeeds.
func TestReconnectHeaviestAlreadyConnected(t *testing.T) {
	g := unitGraph(3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	forest := [][2]int{{0, 1}, {1, 2}}
	got, ok := checkSweep(t, "already connected", g, forestOf(3, forest), forestOf(3, forest))
	if !ok || got != nil {
		t.Fatalf("sweep took %v (ok=%v), want nothing (ok=true)", got, ok)
	}
}

// unitGraph builds a unit-weight graph on n vertices from endpoint pairs.
func unitGraph(n int, pairs [][2]int) *graph.Graph {
	es := make([]graph.Edge, len(pairs))
	for i, k := range pairs {
		es[i] = graph.Edge{U: k[0], V: k[1], W: 1}
	}
	return fixture.Graph(n, es)
}

// forestOf unions the given pairs in a fresh union-find on n vertices.
func forestOf(n int, pairs [][2]int) *lsst.UnionFind {
	uf := lsst.NewUnionFind(n)
	for _, k := range pairs {
		uf.Union(k[0], k[1])
	}
	return uf
}

// checkSweep runs the sweep on uf and the oracle on its twin ref, and
// returns what the sweep took and its verdict.
func checkSweep(t *testing.T, name string, g *graph.Graph, uf, ref *lsst.UnionFind) ([]graph.Edge, bool) {
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
	return got, ok
}
