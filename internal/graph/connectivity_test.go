package graph_test

import (
	"testing"

	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/testkit/fixture"
	"graphspar/internal/vecmath"
)

// TestIsConnectedAgreesWithComponents checks the union-find verdict
// against the incidence-list component count on a fixed table and on
// random sparse graphs, about half of which come out split.
func TestIsConnectedAgreesWithComponents(t *testing.T) {
	sbm, _, err := gen.SBM(3, 20, 0.3, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []*graph.Graph{
		fixture.Graph(0, nil),
		fixture.Graph(1, nil),
		fixture.Graph(2, nil),
		fixture.Graph(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}}),
		fixture.Graph(6, []graph.Edge{
			{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1},
			{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 3, V: 5, W: 1},
		}),
		sbm,
	}
	rng := vecmath.NewRNG(11)
	for range 60 {
		n := 2 + rng.Intn(40)
		var es []graph.Edge
		for range n/2 + rng.Intn(2*n) { // either side of the ≈ (n/2)·ln n threshold
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				es = append(es, graph.Edge{U: u, V: v, W: 1})
			}
		}
		cases = append(cases, fixture.Graph(n, es))
	}
	split := 0
	for i, g := range cases {
		got := g.IsConnected()
		if _, count := g.Components(); got != (count <= 1) {
			t.Errorf("case %d (%v): IsConnected = %v, Components counts %d", i, g, got, count)
		}
		if !got {
			split++
		}
	}
	t.Logf("%d of %d graphs split", split, len(cases))
	if split < 10 || split > len(cases)-10 {
		t.Errorf("%d of %d graphs split: the table does not exercise both verdicts", split, len(cases))
	}
}
