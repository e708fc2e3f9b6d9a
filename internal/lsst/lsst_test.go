package lsst

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"graphspar/internal/gen"
	"graphspar/internal/graph"
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

func TestExtractUnknownAlgorithm(t *testing.T) {
	g, _ := gen.Path(4)
	if _, _, _, err := Extract(g, Algorithm(99), 1); err == nil {
		t.Fatal("unknown algorithm should fail")
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
			if math.Abs(tr.Stretch(g.Edge(id))-1) > 1e-9 {
				return false
			}
		}
		return tr.TotalStretch(g) >= float64(g.N()-1)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
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
