package dynamic

import (
	"context"
	"fmt"
	"math"

	"graphspar/internal/cholesky"
	"graphspar/internal/engine"
	"graphspar/internal/graph"
	"graphspar/internal/lsst"
	"graphspar/internal/vecmath"
)

// Test-only views of the maintainer's private state, for the external
// dynamic_test suites.

// ReconnectHeaviest is the tree-repair sweep.
var ReconnectHeaviest = reconnectHeaviest

// FactorUpdateBudget is the rank-1 update budget between refactorizations.
const FactorUpdateBudget = factorUpdateBudget

// Refactor factors the sparsifier afresh, as the update budget or the
// fill cap makes Apply do.
func (m *Maintainer) Refactor() error { return m.refactor(context.Background(), nil) }

// FactorNNZ is the standing factor's entry count.
func (m *Maintainer) FactorNNZ() int { return m.solver.FactorNNZ() }

// Solver is the standing factor.
func (m *Maintainer) Solver() *cholesky.LapSolver { return m.solver }

// HasTreeEdge reports whether (u,v) is an edge of the spanning tree.
func (m *Maintainer) HasTreeEdge(u, v int) bool { return m.tree.HasEdge(u, v) }

// DropTreeEdge corrupts the tree by one edge, to reach Apply's guard.
func (m *Maintainer) DropTreeEdge(u, v int) {
	m.tree, _, _ = graph.Edit(m.tree, []graph.Edge{{U: u, V: v}})
}

// CheckTree is the invariant the deleted rooted-tree rebuild used to check
// by accident: the tree is n−1 edges of the sparsifier and spans it.
func (m *Maintainer) CheckTree() error {
	n := m.g.N()
	if m.tree.M() != n-1 {
		return fmt.Errorf("%d tree edges, a spanning tree of %d vertices has %d", m.tree.M(), n, n-1)
	}
	uf := lsst.NewUnionFind(n)
	for _, e := range m.tree.Edges() {
		if !m.p.HasEdge(e.U, e.V) {
			return fmt.Errorf("tree edge (%d,%d) missing from sparsifier", e.U, e.V)
		}
		uf.Union(e.U, e.V)
	}
	if uf.Count() != 1 {
		return fmt.Errorf("tree leaves %d components", uf.Count())
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

// RNGState snapshots the maintainer's random stream.
func (m *Maintainer) RNGState() vecmath.RNG { return *m.rng }

// InitialRNGState is the random stream New starts a maintainer on.
func InitialRNGState(seed uint64) vecmath.RNG { return *vecmath.NewRNG(seed ^ rngSalt) }

// FreshCond reruns the latest certificate on a fresh factorization of the
// sparsifier under the standing factor's order and returns its κ. Every
// path that certifies draws the certificate's seed last, so the seed is
// the last draw of the random stream since the state from.
func (m *Maintainer) FreshCond(from vecmath.RNG) (float64, error) {
	var seed uint64
	for draws := 0; from != *m.rng; draws++ {
		if draws == 1<<16 {
			return 0, fmt.Errorf("random stream not reached from the given state in %d draws", draws)
		}
		seed = from.Uint64()
	}
	perm := make([]int, m.solver.Dim())
	for v := range perm {
		perm[m.solver.Coord(v)] = v
	}
	fresh, err := cholesky.NewLapSolverOrdered(m.p, perm)
	if err != nil {
		return 0, err
	}
	c, err := engine.Certify(context.Background(), m.g, m.p, fresh, certifySteps, seed)
	return c.Cond, err
}
