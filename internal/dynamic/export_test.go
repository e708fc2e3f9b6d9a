package dynamic

import (
	"fmt"
	"math"

	"graphspar/internal/cholesky"
	"graphspar/internal/lsst"
)

// Test-only views of the maintainer's private state, for the external
// dynamic_test suites.

// ReconnectHeaviest is the multi-removal repair sweep.
var ReconnectHeaviest = reconnectHeaviest

// HasTreeKey reports whether (u,v), u < v, is in the spanning-tree key set.
func (m *Maintainer) HasTreeKey(u, v int) bool { return m.treeKey[[2]int{u, v}] }

// DropTreeKey corrupts the key set by one edge, to reach Apply's guard.
func (m *Maintainer) DropTreeKey(u, v int) { delete(m.treeKey, [2]int{u, v}) }

// CheckTree is the invariant the deleted rooted-tree rebuild used to check
// by accident: the tree keys are n−1 edges of the sparsifier and span it.
func (m *Maintainer) CheckTree() error {
	n := m.g.N()
	if len(m.treeKey) != n-1 {
		return fmt.Errorf("%d tree keys, a spanning tree of %d vertices has %d", len(m.treeKey), n, n-1)
	}
	uf := lsst.NewUnionFind(n)
	for k := range m.treeKey {
		if k[0] >= k[1] {
			return fmt.Errorf("tree key (%d,%d) is not normalized", k[0], k[1])
		}
		if !m.p.HasEdge(k[0], k[1]) {
			return fmt.Errorf("tree edge (%d,%d) missing from sparsifier", k[0], k[1])
		}
		uf.Union(k[0], k[1])
	}
	if uf.Count() != 1 {
		return fmt.Errorf("tree keys leave %d components", uf.Count())
	}
	return nil
}

// FactorLag solves one zero-mean system on the standing factor and on a
// fresh factorization of the current sparsifier and returns the largest
// difference relative to the solution's scale: ≈ machine epsilon while the
// rank-1-updated factor is in step with Sparsifier(), O(1) if an edit
// reached one and not the other.
func (m *Maintainer) FactorLag() (float64, error) {
	fresh, err := cholesky.NewLapSolver(m.p)
	if err != nil {
		return 0, err
	}
	n := m.g.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(3*i + 1))
	}
	mean := 0.0
	for _, v := range b {
		mean += v
	}
	for i := range b {
		b[i] -= mean / float64(n)
	}
	x, y := make([]float64, n), make([]float64, n)
	m.solver.Solve(x, b)
	fresh.Solve(y, b)
	var diff, scale float64
	for i := range x {
		diff = math.Max(diff, math.Abs(x[i]-y[i]))
		scale = math.Max(scale, math.Abs(y[i]))
	}
	return diff / scale, nil
}
