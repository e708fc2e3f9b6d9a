// Package fixture is the graph-level test support that tests share: Graph
// (graph.New that panics), tiny unit-weight graphs, and Pencil, the one dense reduction of a Laplacian
// pencil that referees spectra (internal/testkit's ExactCond and eig's
// reference tests diagonalize it). No binary links any of it.
//
// It imports only graph, so the in-package tests of every package above
// graph can use it; internal/testkit, which builds the oracle on Pencil,
// imports most of the pipeline and cannot be imported by them. Matrix-
// level helpers that graph's own tests need live in internal/testkit/matrix.
package fixture

import (
	"fmt"

	"graphspar/internal/graph"
)

// Graph is graph.New for inputs valid by construction: it panics on error.
func Graph(n int, edges []graph.Edge) *graph.Graph {
	g, err := graph.New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Path returns the n-vertex path graph with unit weights.
func Path(n int) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("fixture: Path(%d) invalid", n)
	}
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1, W: 1})
	}
	return graph.New(n, edges)
}

// Cycle returns the n-vertex cycle with unit weights.
func Cycle(n int) (*graph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("fixture: Cycle(%d) invalid", n)
	}
	edges := make([]graph.Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{U: i, V: (i + 1) % n, W: 1})
	}
	return graph.New(n, edges)
}

// Complete returns the complete graph K_n with unit weights.
func Complete(n int) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("fixture: Complete(%d) invalid", n)
	}
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.Edge{U: i, V: j, W: 1})
		}
	}
	return graph.New(n, edges)
}

// Star returns the star graph with center 0 and n-1 leaves.
func Star(n int) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("fixture: Star(%d) invalid", n)
	}
	edges := make([]graph.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: 0, V: i, W: 1})
	}
	return graph.New(n, edges)
}
