package cholesky

import (
	"sort"

	"graphspar/internal/sparse"
)

// RCM computes a reverse Cuthill–McKee ordering of the symmetric matrix's
// graph — the banded-ordering oracle the minimum-degree tests compare fill
// against (no product caller since minimum degree replaced it): BFS from a pseudo-peripheral vertex with degree-sorted neighbor
// expansion, reversed. Returns perm with perm[new] = old. Disconnected
// patterns are handled component by component.
func RCM(a *sparse.CSR) []int {
	n := a.Rows
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		deg[i] = a.RowPtr[i+1] - a.RowPtr[i]
	}
	visited := make([]bool, n)
	order := make([]int, 0, n)
	var queue []int

	bfsLevels := func(start int, mark []int) (last int, depth int) {
		for i := range mark {
			mark[i] = -1
		}
		mark[start] = 0
		q := []int{start}
		last = start
		for len(q) > 0 {
			v := q[0]
			q = q[1:]
			last = v
			depth = mark[v]
			for p := a.RowPtr[v]; p < a.RowPtr[v+1]; p++ {
				u := a.ColIdx[p]
				if u != v && mark[u] == -1 && !visited[u] {
					mark[u] = mark[v] + 1
					q = append(q, u)
				}
			}
		}
		return last, depth
	}

	mark := make([]int, n)
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		// Pseudo-peripheral start: double BFS.
		start := s
		last, d1 := bfsLevels(start, mark)
		if last2, d2 := bfsLevels(last, mark); d2 > d1 {
			start = last
			_ = last2
		}
		// Cuthill–McKee BFS with degree-sorted expansion.
		visited[start] = true
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			var nbrs []int
			for p := a.RowPtr[v]; p < a.RowPtr[v+1]; p++ {
				u := a.ColIdx[p]
				if u != v && !visited[u] {
					visited[u] = true
					nbrs = append(nbrs, u)
				}
			}
			sort.Slice(nbrs, func(i, j int) bool { return deg[nbrs[i]] < deg[nbrs[j]] })
			queue = append(queue, nbrs...)
		}
	}
	// Reverse.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}
