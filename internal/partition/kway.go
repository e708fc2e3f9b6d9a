package partition

import (
	"errors"
	"fmt"

	"graphspar/internal/graph"
)

// KWayResult reports a recursive k-way partition.
type KWayResult struct {
	// Labels assigns each vertex a part id in 0..Parts-1.
	Labels []int
	Parts  int
	// CutWeight is the total weight of edges crossing any part boundary.
	CutWeight float64
}

// RecursiveBisect partitions g into `parts` pieces by recursive spectral
// bisection (the standard multilevel-free k-way scheme built on §4.3's
// bipartitioner). Part sizes are balanced by splitting the part budget
// proportionally at each level. Components that become disconnected by a
// cut are partitioned independently.
func RecursiveBisect(g *graph.Graph, parts int, opt Options) (*KWayResult, error) {
	if parts < 1 {
		return nil, errors.New("partition: parts must be positive")
	}
	if err := g.RequireConnected(); err != nil {
		return nil, err
	}
	labels := make([]int, g.N())
	vertices := make([]int, g.N())
	for i := range vertices {
		vertices[i] = i
	}
	next := 0
	if err := recurse(g, vertices, parts, opt, labels, &next); err != nil {
		return nil, err
	}
	res := &KWayResult{Labels: labels, Parts: next}
	for _, e := range g.Edges() {
		if labels[e.U] != labels[e.V] {
			res.CutWeight += e.W
		}
	}
	return res, nil
}

// recurse assigns part ids to the induced subgraph on `vertices`, an
// ascending list; every list it recurses on is ascending too. The
// identity list is g itself, not a copy.
func recurse(g *graph.Graph, vertices []int, parts int, opt Options, labels []int, next *int) error {
	if parts <= 1 || len(vertices) <= 1 {
		id := *next
		*next++
		for _, v := range vertices {
			labels[v] = id
		}
		return nil
	}
	sub, mapping := g, vertices
	if !isIdentity(vertices, g.N()) {
		var err error
		if sub, mapping, err = g.InducedSubgraph(vertices); err != nil {
			return err
		}
	}
	// A cut can disconnect the remainder; partition components separately,
	// giving each a budget proportional to its size.
	if !sub.IsConnected() {
		comps, count := sub.Components()
		groups := make([][]int, count)
		for i, c := range comps {
			groups[c] = append(groups[c], mapping[i])
		}
		remaining := parts
		for ci, grp := range groups {
			share := parts * len(grp) / len(vertices)
			if share < 1 {
				share = 1
			}
			if ci == count-1 {
				share = remaining
				if share < 1 {
					share = 1
				}
			}
			remaining -= share
			if err := recurse(g, grp, share, opt, labels, next); err != nil {
				return err
			}
		}
		return nil
	}

	bis, err := SpectralBisect(sub, opt)
	if err != nil {
		return fmt.Errorf("partition: recursive level failed at %d vertices: %w", len(vertices), err)
	}
	pos, neg := make([]int, 0, bis.Positive), make([]int, 0, bis.Negative)
	for i, s := range bis.Signs {
		if s > 0 {
			pos = append(pos, mapping[i])
		} else {
			neg = append(neg, mapping[i])
		}
	}
	// Degenerate cut (all one side): fall back to an even index split so
	// recursion always terminates.
	if len(pos) == 0 || len(neg) == 0 {
		half := len(vertices) / 2
		pos, neg = vertices[:half], vertices[half:]
	}
	pParts := parts / 2
	if pParts < 1 {
		pParts = 1
	}
	if err := recurse(g, pos, parts-pParts, opt, labels, next); err != nil {
		return err
	}
	return recurse(g, neg, pParts, opt, labels, next)
}

// isIdentity reports whether vertices is 0, 1, …, n-1.
func isIdentity(vertices []int, n int) bool {
	if len(vertices) != n {
		return false
	}
	for i, v := range vertices {
		if v != i {
			return false
		}
	}
	return true
}
