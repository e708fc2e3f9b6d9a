package multigrid

import (
	"testing"

	"graphspar/internal/gen"
	"graphspar/internal/graph"
)

// checkAggregates asserts the mapping covers every vertex with an id in
// [0, nc) and that every aggregate id is used.
func checkAggregates(t *testing.T, agg []int, nc, n int) {
	t.Helper()
	if len(agg) != n {
		t.Fatalf("mapping covers %d of %d vertices", len(agg), n)
	}
	used := make([]bool, nc)
	for v, a := range agg {
		if a < 0 || a >= nc {
			t.Fatalf("vertex %d assigned to aggregate %d, want [0,%d)", v, a, nc)
		}
		used[a] = true
	}
	for a, ok := range used {
		if !ok {
			t.Fatalf("aggregate %d is empty", a)
		}
	}
}

func TestAggregateCoarsensGrid(t *testing.T) {
	g, err := gen.Grid2D(50, 50, gen.UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	agg, nc := AggregateGraph(g)
	checkAggregates(t, agg, nc, g.N())
	// A seed absorbs its whole neighbourhood, so a grid shrinks by well
	// over half per pass — what keeps the multilevel hierarchy shallow.
	if nc >= g.N()/2 {
		t.Fatalf("aggregation barely coarsens: %d aggregates for %d vertices", nc, g.N())
	}
}

func TestAggregateMembersAreConnected(t *testing.T) {
	// Contracting an aggregate must not merge vertices with no path
	// between them inside it: every non-seed member joined through an edge.
	g, err := gen.Grid2D(12, 12, gen.LogUniform, 5)
	if err != nil {
		t.Fatal(err)
	}
	agg, nc := AggregateGraph(g)
	checkAggregates(t, agg, nc, g.N())
	size := make([]int, nc)
	hasNbr := make([]bool, g.N())
	for v, a := range agg {
		size[a]++
		g.Neighbors(v, func(u int, _ float64, _ int) bool {
			if agg[u] == a {
				hasNbr[v] = true
			}
			return true
		})
	}
	for v, a := range agg {
		if size[a] > 1 && !hasNbr[v] {
			t.Fatalf("vertex %d has no neighbour in its aggregate %d", v, a)
		}
	}
}

func TestAggregateDeterministic(t *testing.T) {
	g, err := gen.Grid2D(12, 12, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	a1, n1 := AggregateGraph(g)
	a2, n2 := AggregateGraph(g)
	if n1 != n2 {
		t.Fatalf("aggregate counts differ across calls: %d vs %d", n1, n2)
	}
	for v := range a1 {
		if a1[v] != a2[v] {
			t.Fatalf("vertex %d: aggregate %d then %d", v, a1[v], a2[v])
		}
	}
}

func TestAggregateDisconnectedAndSingletons(t *testing.T) {
	// Two components plus an isolated vertex: aggregation never crosses a
	// component boundary and the isolated vertex is its own aggregate.
	g, err := graph.New(5, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	agg, nc := AggregateGraph(g)
	checkAggregates(t, agg, nc, 5)
	if nc != 3 || agg[0] != agg[1] || agg[2] != agg[3] || agg[0] == agg[2] || agg[4] == agg[0] || agg[4] == agg[2] {
		t.Fatalf("aggregates %v (nc=%d), want {0,1} {2,3} {4}", agg, nc)
	}

	one, err := graph.New(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if agg, nc := AggregateGraph(one); nc != 1 || len(agg) != 1 || agg[0] != 0 {
		t.Fatalf("single vertex: aggregates %v (nc=%d)", agg, nc)
	}
}
