package cholesky

import (
	"container/heap"
	"sort"

	"graphspar/internal/sparse"
)

// minDegreeRef is the map-and-container/heap minimum-degree ordering this
// package shipped before the flat-array kernel, kept verbatim as the
// differential oracle: MinDegree must return the same permutation,
// element for element, on every input.
func minDegreeRef(a *sparse.CSR) []int {
	n := a.Rows
	adj := make([]map[int]struct{}, n)
	for i := 0; i < n; i++ {
		adj[i] = make(map[int]struct{})
	}
	for i := 0; i < n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			if j != i {
				adj[i][j] = struct{}{}
				adj[j][i] = struct{}{}
			}
		}
	}

	h := &refDegHeap{}
	heap.Init(h)
	for v := 0; v < n; v++ {
		heap.Push(h, refDegItem{v, len(adj[v])})
	}
	eliminated := make([]bool, n)
	order := make([]int, 0, n)
	nbrs := make([]int, 0, 64)
	for h.Len() > 0 {
		it := heap.Pop(h).(refDegItem)
		v := it.v
		if eliminated[v] {
			continue
		}
		if it.deg != len(adj[v]) {
			// Stale entry: reinsert with the current degree.
			heap.Push(h, refDegItem{v, len(adj[v])})
			continue
		}
		eliminated[v] = true
		order = append(order, v)
		nbrs = nbrs[:0]
		for u := range adj[v] {
			nbrs = append(nbrs, u)
		}
		// Map iteration order is randomized; sort so the produced ordering
		// (and with it every downstream factor rounding) is identical
		// run-to-run — the whole pipeline promises reproducibility.
		sort.Ints(nbrs)
		// Form the elimination clique and detach v.
		for _, u := range nbrs {
			delete(adj[u], v)
		}
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				a, b := nbrs[i], nbrs[j]
				if _, ok := adj[a][b]; !ok {
					adj[a][b] = struct{}{}
					adj[b][a] = struct{}{}
				}
			}
		}
		for _, u := range nbrs {
			heap.Push(h, refDegItem{u, len(adj[u])})
		}
		adj[v] = nil
	}
	return order
}

type refDegItem struct {
	v, deg int
}

type refDegHeap []refDegItem

func (h refDegHeap) Len() int            { return len(h) }
func (h refDegHeap) Less(i, j int) bool  { return h[i].deg < h[j].deg }
func (h refDegHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refDegHeap) Push(x interface{}) { *h = append(*h, x.(refDegItem)) }
func (h *refDegHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
