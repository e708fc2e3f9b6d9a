package cholesky

import (
	"sort"

	"graphspar/internal/sparse"
)

// minDegreeRef is a map-adjacency exact minimum degree ordering, kept as
// the fill referee: MinDegree, whose degrees are approximate, must reach
// a fill within a stated bound of this order's (checkMinDegree,
// TestMinDegreeFillNoWorse). It is the kernel MinDegree replaced, stated
// directly: each step scans every live vertex for the least
// (degree, −stamp), where a vertex's stamp is the step count at which its
// degree was last set: initially vertex v holds stamp −v, so the lowest
// index wins before any elimination, and a pivot stamps its neighbors in
// ascending order, the last one set winning among equal degrees.
func minDegreeRef(a *sparse.CSR) []int {
	n := a.Rows
	adj := refAdjacency(a)
	stamp := make([]int, n)
	for v := range stamp {
		stamp[v] = -v
	}
	clock := 0
	eliminated := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		v := -1
		for u := 0; u < n; u++ {
			if eliminated[u] {
				continue
			}
			if v < 0 || len(adj[u]) < len(adj[v]) || len(adj[u]) == len(adj[v]) && stamp[u] > stamp[v] {
				v = u
			}
		}
		eliminated[v] = true
		order = append(order, v)
		for _, u := range refEliminate(adj, v) {
			clock++
			stamp[u] = clock
		}
	}
	return order
}

// refAdjacency is the pattern of A ∪ Aᵀ minus the diagonal as one
// neighbor set per vertex.
func refAdjacency(a *sparse.CSR) []map[int]struct{} {
	n := a.Rows
	adj := make([]map[int]struct{}, n)
	for i := 0; i < n; i++ {
		adj[i] = make(map[int]struct{})
	}
	for i := 0; i < n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if j := a.ColIdx[p]; j != i {
				adj[i][j] = struct{}{}
				adj[j][i] = struct{}{}
			}
		}
	}
	return adj
}

// refEliminate detaches v, turns its neighbors into a clique and returns
// them in ascending order.
func refEliminate(adj []map[int]struct{}, v int) []int {
	nbrs := make([]int, 0, len(adj[v]))
	for u := range adj[v] {
		nbrs = append(nbrs, u)
	}
	sort.Ints(nbrs)
	for _, u := range nbrs {
		delete(adj[u], v)
	}
	for i, a := range nbrs {
		for _, b := range nbrs[i+1:] {
			adj[a][b] = struct{}{}
			adj[b][a] = struct{}{}
		}
	}
	adj[v] = nil
	return nbrs
}
