package core

import (
	"math"
	"reflect"
	"testing"

	"graphspar/internal/graph"
)

func TestSelectEdges(t *testing.T) {
	// Candidate i is edge id i: a path 0-1-2-3-4-5 (consecutive candidates
	// share an endpoint) followed by two edges disjoint from everything.
	g, err := graph.New(10, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1},
		{U: 6, V: 7, W: 1}, {U: 8, V: 9, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range g.Edges() {
		if want := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {6, 7}, {8, 9}}[i]; e.U != want[0] || e.V != want[1] {
			t.Fatalf("edge %d is (%d,%d), the table below assumes (%d,%d)", i, e.U, e.V, want[0], want[1])
		}
	}
	ids := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	unlimited := math.MaxInt

	cases := []struct {
		name          string
		heats         []float64
		maxHeat       float64
		theta         float64
		batchFraction float64
		budget        int
		similarity    bool
		wantChosen    []int
		wantPassing   int
	}{
		{
			name:  "ranked by heat, capped at ceil(fraction·passing)",
			heats: []float64{1, 9, 3, 7, 5, 2, 8}, maxHeat: 9, theta: 0.2, batchFraction: 0.5, budget: unlimited,
			wantChosen: []int{1, 6, 3}, wantPassing: 6, // 1/9 < θσ; ceil(0.5·6) = 3
		},
		{
			name:  "equal heats rank by position, also across the cap",
			heats: []float64{3, 5, 5, 5, 1, 5, 5}, maxHeat: 5, theta: 0.1, batchFraction: 0.4, budget: unlimited,
			wantChosen: []int{1, 2, 3}, wantPassing: 7, // ceil(0.4·7) = 3 of the five tied at 5
		},
		{
			name:  "similarity skips claimed endpoints and keeps filling the cap",
			heats: []float64{9, 8, 7, 6, 5, 4, 3}, maxHeat: 9, theta: 0.1, batchFraction: 0.5, budget: unlimited, similarity: true,
			wantChosen: []int{0, 2, 4, 5}, wantPassing: 7, // (1,2) and (3,4) touch a claimed vertex
		},
		{
			name:  "similarity off admits adjacent edges",
			heats: []float64{9, 8, 7, 6, 5, 4, 3}, maxHeat: 9, theta: 0.1, batchFraction: 0.5, budget: unlimited,
			wantChosen: []int{0, 1, 2, 3}, wantPassing: 7,
		},
		{
			name:  "similarity with tied heats",
			heats: []float64{4, 4, 4, 4, 4, 4, 4}, maxHeat: 4, theta: 1, batchFraction: 1, budget: unlimited, similarity: true,
			wantChosen: []int{0, 2, 4, 5, 6}, wantPassing: 7,
		},
		{
			name:  "budget below the cap wins",
			heats: []float64{1, 9, 3, 7, 5, 2, 8}, maxHeat: 9, theta: 0.2, batchFraction: 0.5, budget: 1,
			wantChosen: []int{1}, wantPassing: 6,
		},
		{
			name:  "no budget admits nothing",
			heats: []float64{1, 9, 3, 7, 5, 2, 8}, maxHeat: 9, theta: 0.2, batchFraction: 0.5, budget: 0,
			wantChosen: nil, wantPassing: 6,
		},
		{
			name:  "a tiny fraction still admits one",
			heats: []float64{1, 9, 3, 7, 5, 2, 8}, maxHeat: 9, theta: 0.2, batchFraction: 0.01, budget: unlimited,
			wantChosen: []int{1}, wantPassing: 6,
		},
		{
			name:  "nothing beats θσ: the hottest is forced, first among ties",
			heats: []float64{1, 3, 2, 3, 1, 0, 0}, maxHeat: 10, theta: 0.9, batchFraction: 0.25, budget: unlimited, similarity: true,
			wantChosen: []int{1}, wantPassing: 0,
		},
		{
			name:  "forced edge still respects the budget",
			heats: []float64{1, 3, 2, 3, 1, 0, 0}, maxHeat: 10, theta: 0.9, batchFraction: 0.25, budget: 0,
			wantChosen: nil, wantPassing: 0,
		},
		{
			name:  "zero max heat: nothing passes, position 0 is forced",
			heats: []float64{0, 0, 0, 0, 0, 0, 0}, maxHeat: 0, theta: 0.5, batchFraction: 0.25, budget: unlimited,
			wantChosen: []int{0}, wantPassing: 0,
		},
		{
			name:  "no candidates",
			heats: nil, maxHeat: 0, theta: 0.5, batchFraction: 0.25, budget: unlimited, similarity: true,
			wantChosen: nil, wantPassing: 0,
		},
	}
	for _, c := range cases {
		chosen, passing := SelectEdges(g, ids(len(c.heats)), c.heats, c.maxHeat, c.theta, c.batchFraction, c.budget, c.similarity)
		if !reflect.DeepEqual(chosen, c.wantChosen) || passing != c.wantPassing {
			t.Errorf("%s: chosen %v passing %d, want %v / %d", c.name, chosen, passing, c.wantChosen, c.wantPassing)
		}
	}
}

// TestSelectEdgesTieOrderLargeInput: past the size where sort.Slice stops
// being an insertion sort, a heat-only comparator leaves tied candidates
// in an order that depends on the sort algorithm; the (heat desc, position
// asc) order must not.
func TestSelectEdgesTieOrderLargeInput(t *testing.T) {
	const n = 200
	edges := make([]graph.Edge, n)
	heats := make([]float64, n)
	candIDs := make([]int, n)
	for i := range edges {
		edges[i] = graph.Edge{U: 2 * i, V: 2*i + 1, W: 1}
		heats[i] = float64(1 + i%3)
		candIDs[i] = i
	}
	g, err := graph.New(2*n, edges)
	if err != nil {
		t.Fatal(err)
	}
	chosen, passing := SelectEdges(g, candIDs, heats, 3, 0.1, 0.5, math.MaxInt, true)
	if passing != n || len(chosen) != n/2 {
		t.Fatalf("passing %d chosen %d, want %d / %d", passing, len(chosen), n, n/2)
	}
	for i := 1; i < len(chosen); i++ {
		a, b := chosen[i-1], chosen[i]
		if heats[a] < heats[b] || (heats[a] == heats[b] && a > b) {
			t.Fatalf("admission order breaks (heat desc, position asc) at %d: pos %d (heat %v) before pos %d (heat %v)", i, a, heats[a], b, heats[b])
		}
	}
}
