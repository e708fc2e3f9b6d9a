package lsst

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"graphspar/internal/gen"
	"graphspar/internal/graph"
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
	if _, err := MaxWeightSpanningTree(g); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("err = %v, want ErrNotConnected", err)
	}
}

func TestDijkstraTreePicksShortPaths(t *testing.T) {
	// Square 0-1-2-3-0 with a heavy (short) diagonal 0-2.
	g, _ := graph.New(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 0, V: 3, W: 1}, {U: 0, V: 2, W: 10},
	})
	ids, err := DijkstraTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	hasDiag := false
	for _, id := range ids {
		e := g.Edge(id)
		if e.U == 0 && e.V == 2 {
			hasDiag = true
		}
	}
	if !hasDiag {
		t.Fatal("Dijkstra should route 2 through the low-resistance diagonal")
	}
	if _, err := DijkstraTree(g, 99); err == nil {
		t.Fatal("bad source should fail")
	}
}

func TestAKPWTreeSpans(t *testing.T) {
	g, err := gen.Grid2D(12, 12, gen.LogUniform, 7)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := AKPWTree(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != g.N()-1 {
		t.Fatalf("tree edges %d, want %d", len(ids), g.N()-1)
	}
	// Verify it is actually a spanning tree by building it.
	if _, err := tree.FromGraph(g, ids, 0); err != nil {
		t.Fatalf("AKPW output is not a spanning tree: %v", err)
	}
}

func TestAKPWSingleVertex(t *testing.T) {
	g, _ := graph.New(1, nil)
	ids, err := AKPWTree(g, 1)
	if err != nil || len(ids) != 0 {
		t.Fatalf("single vertex: ids=%v err=%v", ids, err)
	}
}

func TestExtractAllAlgorithms(t *testing.T) {
	g, err := gen.Grid2D(10, 10, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{MaxWeight, Dijkstra, AKPW} {
		t.Run(alg.String(), func(t *testing.T) {
			tr, treeIDs, offIDs, err := Extract(g, alg, 42)
			if err != nil {
				t.Fatal(err)
			}
			if tr.N() != g.N() {
				t.Fatalf("tree N = %d", tr.N())
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
}

func TestExtractUnknownAlgorithm(t *testing.T) {
	g, _ := gen.Path(4)
	if _, _, _, err := Extract(g, Algorithm(99), 1); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
}

func TestAlgorithmString(t *testing.T) {
	if MaxWeight.String() != "maxweight" || Dijkstra.String() != "dijkstra" || AKPW.String() != "akpw" {
		t.Fatal("String() names wrong")
	}
	if Algorithm(12).String() == "" {
		t.Fatal("unknown algorithm should still print")
	}
}

func TestStretchStatsOnCycle(t *testing.T) {
	// Unit cycle of n=4: tree = path (3 edges), off-tree edge closes the
	// cycle with stretch 1·(1+1+1) = 3. Total = 3·1 + 3 = 6.
	g, _ := gen.Cycle(4)
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
	if st := tr.Stretch(g.Edge(offIDs[0])); math.Abs(st-3) > 1e-12 {
		t.Fatalf("off-tree stretch = %v, want 3", st)
	}
}

// Property: every algorithm yields a spanning tree whose tree edges have
// stretch exactly 1, and total stretch >= m (every stretch >= ... tree
// edges are 1; off-tree can be below 1 only if the tree path beats the
// edge, impossible for max-weight trees on unit graphs but possible in
// general - so we only check >= n-1).
func TestQuickExtractInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vecmath.NewRNG(seed)
		rows, cols := 3+rng.Intn(6), 3+rng.Intn(6)
		g, err := gen.Grid2D(rows, cols, gen.UniformWeights, seed)
		if err != nil {
			return false
		}
		for _, alg := range []Algorithm{MaxWeight, Dijkstra, AKPW} {
			tr, treeIDs, _, err := Extract(g, alg, seed)
			if err != nil {
				return false
			}
			for _, id := range treeIDs {
				if math.Abs(tr.Stretch(g.Edge(id))-1) > 1e-9 {
					return false
				}
			}
			if tr.TotalStretch(g) < float64(g.N()-1)-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// AKPW should produce competitive stretch on heavy-tailed weights: not
// astronomically worse than MaxWeight (a sanity guard rather than a
// theorem check).
func TestAKPWStretchReasonable(t *testing.T) {
	g, err := gen.Grid2D(30, 30, gen.LogUniform, 11)
	if err != nil {
		t.Fatal(err)
	}
	trA, _, _, err := Extract(g, AKPW, 5)
	if err != nil {
		t.Fatal(err)
	}
	trM, _, _, err := Extract(g, MaxWeight, 5)
	if err != nil {
		t.Fatal(err)
	}
	sa, sm := trA.TotalStretch(g), trM.TotalStretch(g)
	if sa > 50*sm {
		t.Fatalf("AKPW stretch %v wildly worse than MaxWeight %v", sa, sm)
	}
}

func BenchmarkAKPWGrid(b *testing.B) {
	g, err := gen.Grid2D(100, 100, gen.UniformWeights, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AKPWTree(g, uint64(i)); err != nil {
			b.Fatal(err)
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
