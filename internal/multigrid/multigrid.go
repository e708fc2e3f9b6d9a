// Package multigrid implements heavy-edge aggregation, the coarsening
// step of aggregation-based algebraic multigrid (the LAMG/SAMG solvers
// the paper cites, [13, 24]). The multilevel sparsification plan
// contracts the graph along these aggregates; the package has no cycle or
// solver — the filter loops solve with a direct factorization.
package multigrid

import (
	"graphspar/internal/graph"
	"graphspar/internal/sparse"
)

// AggregateGraph runs one heavy-edge aggregation pass on the Laplacian
// of g and returns the vertex → aggregate mapping together with the
// aggregate count. Every vertex is assigned; isolated vertices become
// singleton aggregates. Deterministic: depends only on the graph.
func AggregateGraph(g *graph.Graph) ([]int, int) {
	return aggregate(g.Laplacian())
}

// aggregate performs heavy-edge aggregation: unaggregated vertices seed
// aggregates and absorb their unaggregated neighbors; leftovers join the
// aggregate of their strongest neighbor.
func aggregate(a *sparse.CSR) ([]int, int) {
	n := a.Rows
	agg := make([]int, n)
	for i := range agg {
		agg[i] = -1
	}
	nc := 0
	// Pass 1: seed aggregates from vertices with no aggregated neighbor.
	for v := 0; v < n; v++ {
		if agg[v] != -1 {
			continue
		}
		hasAggNbr := false
		for p := a.RowPtr[v]; p < a.RowPtr[v+1]; p++ {
			j := a.ColIdx[p]
			if j != v && agg[j] != -1 {
				hasAggNbr = true
				break
			}
		}
		if hasAggNbr {
			continue
		}
		agg[v] = nc
		for p := a.RowPtr[v]; p < a.RowPtr[v+1]; p++ {
			j := a.ColIdx[p]
			if j != v && agg[j] == -1 {
				agg[j] = nc
			}
		}
		nc++
	}
	// Pass 2: attach leftovers to the strongest aggregated neighbor.
	for v := 0; v < n; v++ {
		if agg[v] != -1 {
			continue
		}
		best, bestW := -1, 0.0
		for p := a.RowPtr[v]; p < a.RowPtr[v+1]; p++ {
			j := a.ColIdx[p]
			if j == v || agg[j] == -1 {
				continue
			}
			if w := -a.Val[p]; w > bestW {
				bestW, best = w, agg[j]
			}
		}
		if best == -1 {
			agg[v] = nc
			nc++
		} else {
			agg[v] = best
		}
	}
	return agg, nc
}
