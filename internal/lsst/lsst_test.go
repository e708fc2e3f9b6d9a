package lsst

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/testkit/fixture"
	"graphspar/internal/tree"
	"graphspar/internal/vecmath"
)

func TestUnionFind(t *testing.T) {
	u := NewUnionFind(5)
	if u.Count() != 5 {
		t.Fatalf("Count = %d", u.Count())
	}
	if !u.Union(0, 1) || !u.Union(1, 2) {
		t.Fatal("unions should succeed")
	}
	if u.Union(0, 2) {
		t.Fatal("redundant union should fail")
	}
	if u.Count() != 3 {
		t.Fatalf("Count = %d, want 3", u.Count())
	}
	if u.Find(0) != u.Find(2) || u.Find(3) == u.Find(4) && false {
		t.Fatal("find wrong")
	}
	if u.Find(3) == u.Find(0) {
		t.Fatal("3 should be separate")
	}
}

func TestMaxWeightSpanningTreeTriangle(t *testing.T) {
	g, _ := graph.New(3, []graph.Edge{{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 1}})
	ids, err := MaxWeightSpanningTree(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("tree size %d", len(ids))
	}
	// Must pick the two heaviest edges (weights 3 and 2).
	var wsum float64
	for _, id := range ids {
		wsum += g.Edge(id).W
	}
	if wsum != 5 {
		t.Fatalf("total tree weight %v, want 5", wsum)
	}
}

func TestMaxWeightDisconnected(t *testing.T) {
	g, _ := graph.New(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if _, err := MaxWeightSpanningTree(g); !errors.Is(err, graph.ErrDisconnected) {
		t.Fatalf("err = %v, want graph.ErrDisconnected", err)
	}
}

// TestExtractAllAlgorithms runs the one construction, MaxWeight, under
// its subtest name.
func TestExtractAllAlgorithms(t *testing.T) {
	g, err := gen.Grid2D(10, 10, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("maxweight", func(t *testing.T) {
		tr, treeIDs, offIDs, err := Extract(g, MaxWeight, 42)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Graph().N() != g.N() {
			t.Fatalf("tree N = %d", tr.Graph().N())
		}
		if len(treeIDs) != g.N()-1 {
			t.Fatalf("tree ids %d", len(treeIDs))
		}
		if len(treeIDs)+len(offIDs) != g.M() {
			t.Fatalf("ids don't partition edges: %d + %d != %d", len(treeIDs), len(offIDs), g.M())
		}
		seen := map[int]bool{}
		for _, id := range append(append([]int{}, treeIDs...), offIDs...) {
			if seen[id] {
				t.Fatalf("id %d duplicated", id)
			}
			seen[id] = true
		}
	})
}

func TestExtractUnknownAlgorithm(t *testing.T) {
	g, _ := fixture.Path(4)
	if _, _, _, err := Extract(g, Algorithm(99), 1); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
}

// stretch is the stretch of g's edge id over tr through the product path:
// TotalStretch over a graph that holds that edge alone.
func stretch(tr *tree.Tree, g *graph.Graph, id int) float64 {
	return tr.TotalStretch(fixture.Graph(g.N(), []graph.Edge{g.Edge(id)}))
}

func TestStretchStatsOnCycle(t *testing.T) {
	// Unit cycle of n=4: tree = path (3 edges), off-tree edge closes the
	// cycle with stretch 1·(1+1+1) = 3. Total = 3·1 + 3 = 6.
	g, _ := fixture.Cycle(4)
	tr, _, offIDs, err := Extract(g, MaxWeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	if total := tr.TotalStretch(g); math.Abs(total-6) > 1e-12 {
		t.Fatalf("TotalStretch = %v, want 6", total)
	}
	if len(offIDs) != 1 {
		t.Fatalf("off-tree edges = %d, want 1", len(offIDs))
	}
	if st := stretch(tr, g, offIDs[0]); math.Abs(st-3) > 1e-12 {
		t.Fatalf("off-tree stretch = %v, want 3", st)
	}
}

// Property: Extract's tree ids are exactly MaxWeightSpanningTree's, in
// the same order, for any seed (multilevel.Interpolate and the dynamic
// maintainer's rebuild call MaxWeightSpanningTree directly on that
// promise); tree edges have stretch exactly 1, and total stretch is at
// least n-1.
func TestQuickExtractInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vecmath.NewRNG(seed)
		rows, cols := 3+rng.Intn(6), 3+rng.Intn(6)
		g, err := gen.Grid2D(rows, cols, gen.UniformWeights, seed)
		if err != nil {
			return false
		}
		tr, treeIDs, _, err := Extract(g, MaxWeight, seed)
		if err != nil {
			return false
		}
		mst, err := MaxWeightSpanningTree(g)
		if err != nil || !slices.Equal(treeIDs, mst) {
			return false
		}
		for _, id := range treeIDs {
			if math.Abs(stretch(tr, g, id)-1) > 1e-9 {
				return false
			}
		}
		return tr.TotalStretch(g) >= float64(g.N()-1)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// maxWeightRef is Kruskal over edge ids ordered by sort.Slice on weight
// alone — the tie order every golden sparsifier was recorded with.
func maxWeightRef(g *graph.Graph) []int {
	ids := make([]int, g.M())
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return g.Edge(ids[a]).W > g.Edge(ids[b]).W })
	uf := NewUnionFind(g.N())
	var tree []int
	for _, id := range ids {
		if e := g.Edge(id); uf.Union(e.U, e.V) {
			tree = append(tree, id)
		}
	}
	return tree
}

// TestMaxWeightTieOrderMatchesReference pins the tie order on inputs made
// of ties: unit-weight SBM and grid graphs, and a grid with three
// distinct weights, over several seeds. The tree ids and their order must
// equal the reference's exactly.
func TestMaxWeightTieOrderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		sbm, _, err := gen.SBM(4, 60+10*int(seed), 0.2, 0.02, seed)
		if err != nil {
			t.Fatal(err)
		}
		grid, err := gen.Grid2D(20+int(seed), 30, gen.UnitWeights, seed)
		if err != nil {
			t.Fatal(err)
		}
		banded := grid.EdgesCopy()
		for i := range banded {
			banded[i].W = float64(1 + (i*int(seed))%3)
		}
		for i, g := range []*graph.Graph{sbm, grid, fixture.Graph(grid.N(), banded)} {
			got, err := MaxWeightSpanningTree(g)
			if err != nil {
				t.Fatal(err)
			}
			if want := maxWeightRef(g); !slices.Equal(got, want) {
				t.Fatalf("input %d, seed %d: tree ids differ from the sort.Slice reference", i, seed)
			}
		}
	}
}

// heaviestRef is the whole-list-sort oracle internal/dynamic's repair
// tests use, restricted to ids: every edge id of g is stably sorted by
// weight desc from id order, and the ids in the set are unioned in that
// order.
func heaviestRef(g *graph.Graph, ids []int, uf *UnionFind) (joined, rest []int) {
	all := make([]int, g.M())
	for i := range all {
		all[i] = i
	}
	sort.SliceStable(all, func(a, b int) bool { return g.Edge(all[a]).W > g.Edge(all[b]).W })
	in := make([]bool, g.M())
	for _, id := range ids {
		in[id] = true
	}
	for _, id := range all {
		if !in[id] {
			continue
		}
		if e := g.Edge(id); uf.Union(e.U, e.V) {
			joined = append(joined, id)
		} else {
			rest = append(rest, id)
		}
	}
	return joined, rest
}

// checkHeaviest runs Heaviest and the oracle from the same forest (g's
// vertices with the merged pairs unioned) and requires both to give want.
func checkHeaviest(t *testing.T, g *graph.Graph, merged [][2]int, ids, wantJoined, wantRest []int) {
	t.Helper()
	forest := func() *UnionFind {
		uf := NewUnionFind(g.N())
		for _, p := range merged {
			uf.Union(p[0], p[1])
		}
		return uf
	}
	uf, ref := forest(), forest()
	refJoined, refRest := heaviestRef(g, ids, ref)
	joined, rest := Heaviest(g, slices.Clone(ids), uf)
	if !slices.Equal(joined, wantJoined) || !slices.Equal(rest, wantRest) {
		t.Errorf("Heaviest = %v, %v; want %v, %v", joined, rest, wantJoined, wantRest)
	}
	if !slices.Equal(refJoined, wantJoined) || !slices.Equal(refRest, wantRest) {
		t.Errorf("oracle = %v, %v; want %v, %v", refJoined, refRest, wantJoined, wantRest)
	}
	if uf.Count() != ref.Count() {
		t.Errorf("Heaviest left %d sets, oracle %d", uf.Count(), ref.Count())
	}
}

// heaviestGraph has ids in (u,v) order: 0 (0,1) w2, 1 (0,2) w1,
// 2 (1,2) w1, 3 (1,3) w3, 4 (2,4) w1, 5 (3,4) w3.
func heaviestGraph() *graph.Graph {
	return fixture.Graph(5, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 0, V: 2, W: 1}, {U: 1, V: 2, W: 1},
		{U: 1, V: 3, W: 3}, {U: 2, V: 4, W: 1}, {U: 3, V: 4, W: 3}})
}

// Edges 1 and 2 tie at weight 1 and either closes the triangle after
// edge 0; the lower id joins, whatever order the ids come in.
func TestHeaviestTiesToLowestID(t *testing.T) {
	checkHeaviest(t, heaviestGraph(), nil, []int{2, 1, 0}, []int{0, 1}, []int{2})
}

// With {1,3} and {2,4} already merged, edge 3 is inside a set and goes
// to rest at its place in the sweep; edge 5 joins the two sets and edge 0
// brings in vertex 0, after which every weight-1 edge is redundant.
func TestHeaviestPartlyMergedForest(t *testing.T) {
	checkHeaviest(t, heaviestGraph(), [][2]int{{1, 3}, {2, 4}}, []int{5, 4, 3, 2, 1, 0},
		[]int{5, 0}, []int{3, 1, 2, 4})
}

// A forest that is already one component joins nothing; rest is every id
// in sweep order.
func TestHeaviestOneComponentJoinsNothing(t *testing.T) {
	checkHeaviest(t, heaviestGraph(), [][2]int{{0, 1}, {1, 2}, {1, 3}, {3, 4}}, []int{0, 1, 2, 3, 4, 5},
		nil, []int{3, 5, 0, 1, 2, 4})
}

// TestExtractRootIsLowestMaxDegree pins Extract's root, which it counts
// from the edge list, to the index-built Degree's argmax, ties to the
// lowest id: on a grid (four-way ties in the interior), unit-weight SBMs
// and a star whose hub is the last vertex.
func TestExtractRootIsLowestMaxDegree(t *testing.T) {
	grid, err := gen.Grid2D(7, 9, gen.UniformWeights, 2)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{grid}
	for seed := uint64(1); seed <= 3; seed++ {
		sbm, _, err := gen.SBM(3, 30, 0.2, 0.02, seed)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, sbm)
	}
	var star []graph.Edge
	for v := 0; v < 9; v++ {
		star = append(star, graph.Edge{U: v, V: 9, W: 1})
	}
	graphs = append(graphs, fixture.Graph(10, star))
	for i, g := range graphs {
		tr, ids, _, err := Extract(g, MaxWeight, 0)
		if err != nil {
			t.Fatal(err)
		}
		in := graph.NewIncidence(g)
		degree := func(v int) int { to, _ := in.Arcs(v); return len(to) }
		want := 0
		for v := 1; v < g.N(); v++ {
			if degree(v) > degree(want) {
				want = v
			}
		}
		// The tree FromGraph roots at want, field for field.
		ref, err := tree.FromGraph(g, ids, want)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr, ref) {
			t.Errorf("graph %d: Extract's tree is not the one rooted at %d (degree %d)", i, want, degree(want))
		}
	}
}

func BenchmarkMaxWeightGrid(b *testing.B) {
	g, err := gen.Grid2D(100, 100, gen.UniformWeights, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaxWeightSpanningTree(g); err != nil {
			b.Fatal(err)
		}
	}
}
