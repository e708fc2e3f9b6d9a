package cholesky

import (
	"graphspar/internal/graph"
)

// NDOrder computes a nested-dissection elimination order for g's reduced
// (grounded) system: a BFS spanning forest of the n-1 reduced vertices is
// decomposed recursively at centroids, each centroid eliminated after the
// components its removal leaves. Every recursion level at least halves the
// component, so the decomposition — and with it the elimination tree of a
// near-tree matrix factored in this order — has O(log n) height. That
// height is the path every rank-1 Update walks: minimum degree would give
// less fill on sparsifier Laplacians but elimination trees as deep as the
// backbone diameter, turning O(fill)-local updates into O(√n) walks on
// grids. Returns perm with perm[new] = old over the reduced indices.
func NDOrder(g *graph.Graph) []int {
	n := g.N() - 1 // ground = vertex n is dropped from the reduced system
	if n <= 0 {
		return nil
	}

	// BFS spanning forest of the reduced vertex set. Off-tree edges are
	// ignored here; they only add fill on top of whatever the tree order
	// produces, and sparsifiers carry few of them by construction.
	treeParent := make([]int, n)
	for i := range treeParent {
		treeParent[i] = -2 // unvisited
	}
	var roots []int
	q := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if treeParent[s] != -2 {
			continue
		}
		treeParent[s] = -1
		roots = append(roots, s)
		q = append(q[:0], s)
		for qi := 0; qi < len(q); qi++ {
			u := q[qi]
			g.Neighbors(u, func(v int, _ float64, _ int) bool {
				if v < n && treeParent[v] == -2 {
					treeParent[v] = u
					q = append(q, v)
				}
				return true
			})
		}
	}

	// Forest adjacency in CSR form.
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		if p := treeParent[v]; p >= 0 {
			deg[v]++
			deg[p]++
		}
	}
	ptr := make([]int, n+1)
	for i := 0; i < n; i++ {
		ptr[i+1] = ptr[i] + deg[i]
	}
	adj := make([]int, ptr[n])
	next := append([]int(nil), ptr[:n]...)
	for v := 0; v < n; v++ {
		if p := treeParent[v]; p >= 0 {
			adj[next[v]] = p
			next[v]++
			adj[next[p]] = v
			next[p]++
		}
	}

	removed := make([]bool, n)
	size := make([]int, n)
	par := make([]int, n)
	seq := make([]int, 0, n)
	order := make([]int, 0, n)

	// compSize fills size/par for the live component containing root via an
	// iterative DFS and returns the component's vertex count.
	compSize := func(root int) int {
		seq = append(seq[:0], root)
		par[root] = -1
		for qi := 0; qi < len(seq); qi++ {
			v := seq[qi]
			size[v] = 1
			for k := ptr[v]; k < ptr[v+1]; k++ {
				u := adj[k]
				if u != par[v] && !removed[u] {
					par[u] = v
					seq = append(seq, u)
				}
			}
		}
		for i := len(seq) - 1; i > 0; i-- {
			size[par[seq[i]]] += size[seq[i]]
		}
		return len(seq)
	}

	var decompose func(root int)
	decompose = func(root int) {
		total := compSize(root)
		// Walk toward the heavy side until no component past c exceeds half.
		c := root
		for {
			heavy := -1
			for k := ptr[c]; k < ptr[c+1]; k++ {
				u := adj[k]
				if u != par[c] && !removed[u] && size[u]*2 > total {
					heavy = u
					break
				}
			}
			if heavy == -1 {
				break
			}
			c = heavy
		}
		removed[c] = true
		for k := ptr[c]; k < ptr[c+1]; k++ {
			if u := adj[k]; !removed[u] {
				decompose(u)
			}
		}
		order = append(order, c)
	}
	for _, r := range roots {
		decompose(r)
	}
	return order
}

// NewLapSolverND grounds the last vertex of g and factors with the
// nested-dissection order of NDOrder instead of minimum degree. The
// dynamic maintainer builds its solvers this way so that the etree paths
// ApplyEdge walks stay logarithmic in n; one-shot callers that never
// update the factor keep the lower-fill MinDegree of NewLapSolver.
func NewLapSolverND(g *graph.Graph) (*LapSolver, error) {
	if err := g.RequireConnected(); err != nil {
		return nil, err
	}
	if g.N() == 1 {
		return &LapSolver{n: 1, ground: 0}, nil
	}
	return newLapSolver(g, NDOrder(g))
}
