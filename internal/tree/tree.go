// Package tree implements rooted spanning trees: construction from edge
// lists, total stretch over a graph's edges through the tree-path
// effective resistances (edge stretch, §3.3 of the paper), and the exact O(n)
// tree Laplacian solver that makes spanning-tree preconditioners and the
// generalized power iterations of §3.2 fast.
package tree

import (
	"errors"
	"fmt"
	"slices"

	"graphspar/internal/graph"
)

// Errors returned by the constructor.
var (
	ErrNotTree = errors.New("tree: edge set is not a spanning tree")
)

// Tree is a rooted spanning tree on vertices 0..n-1.
type Tree struct {
	n      int
	root   int
	parent []int        // parent[v], -1 for root
	pw     []float64    // weight of edge (v, parent[v]); 0 for root
	order  []int        // vertices in BFS order from root (parents precede children)
	g      *graph.Graph // the n−1 edges, normalized once by Build

	resToRoot []float64 // Σ 1/w along the root→v path
}

// Build constructs a rooted tree from exactly n-1 edges spanning n
// vertices. The root is vertex `root`.
func Build(n int, edges []graph.Edge, root int) (*Tree, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrNotTree, n)
	}
	if len(edges) != n-1 {
		return nil, fmt.Errorf("%w: %d edges for %d vertices", ErrNotTree, len(edges), n)
	}
	if root < 0 || root >= n {
		return nil, fmt.Errorf("tree: root %d out of range", root)
	}
	g, err := graph.New(n, edges)
	if err != nil {
		return nil, err
	}
	if g.M() != n-1 {
		return nil, fmt.Errorf("%w: duplicate edges collapse to %d", ErrNotTree, g.M())
	}
	order, parent := g.BFSOrder(root)
	if len(order) != n {
		return nil, fmt.Errorf("%w: not connected", ErrNotTree)
	}
	t := &Tree{
		n:         n,
		root:      root,
		parent:    parent,
		pw:        make([]float64, n),
		order:     order,
		g:         g,
		resToRoot: make([]float64, n),
	}
	// Fill parent weights and path resistances in BFS order.
	for _, v := range order {
		p := parent[v]
		if p == -1 {
			continue
		}
		id, ok := graph.FindEdge(g, v, p)
		if !ok {
			return nil, fmt.Errorf("%w: missing parent edge", ErrNotTree)
		}
		t.pw[v] = g.Edge(id).W
		t.resToRoot[v] = t.resToRoot[p] + 1/t.pw[v]
	}
	return t, nil
}

// FromGraph extracts the tree with the given edge ids from g, rooted at root.
// The ids are gathered in ascending order — g's (U,V) order — so Build's
// graph.New does not sort them.
func FromGraph(g *graph.Graph, edgeIDs []int, root int) (*Tree, error) {
	sorted := slices.Clone(edgeIDs)
	slices.Sort(sorted)
	edges := make([]graph.Edge, len(sorted))
	for i, id := range sorted {
		if id < 0 || id >= g.M() {
			return nil, fmt.Errorf("tree: edge id %d out of range", id)
		}
		edges[i] = g.Edge(id)
	}
	return Build(g.N(), edges, root)
}

// Graph returns the tree as a *graph.Graph on the same vertex set: the
// one Build normalized, on every call. Graphs are immutable (AddEdges
// builds a new edge list), so sharing it costs nothing.
func (t *Tree) Graph() *graph.Graph { return t.g }

// TotalStretch returns st_P(G) = Σ_{e∈G} st(e) over all edges of g,
// which equals Trace(L_P⁺ L_G) (eq. 4). Each term is st(e) = w_e·R_P(u,v),
// R_P the tree-path resistance, summed in edge order, so it is
// bit-identical to summing the tests' per-pair reference; every LCA comes
// from one offline pass (Tarjan's), whose O(n + m) int32 scratch is
// dropped on return.
//
// The pass walks the tree depth-first. A finished subtree's union-find
// set (union by rank, path halving) is merged into its parent's, and each
// set's root records its lowest open vertex in anc; so when the walk
// enters u, the LCA of u and any already-entered w is anc[find(w)].
func (t *Tree) TotalStretch(g *graph.Graph) float64 {
	n, edges := t.n, g.Edges()
	inc := graph.NewIncidence(g)
	// Children as sibling lists (first child, next sibling), in BFS order.
	first, next := make([]int32, n), make([]int32, n)
	for v := range first {
		first[v] = -1
	}
	for i := n - 1; i > 0; i-- {
		v := t.order[i]
		p := t.parent[v]
		next[v], first[p] = first[p], int32(v)
	}

	set := make([]int32, n) // union-find parent; -1 until entered
	for v := range set {
		set[v] = -1
	}
	anc := make([]int32, n)
	rank := make([]uint8, n)
	lca := make([]int32, len(edges))
	find := func(x int32) int32 {
		for set[x] != x {
			set[x] = set[set[x]]
			x = set[x]
		}
		return x
	}
	enter := func(u int32) {
		set[u], anc[u] = u, u
		to, ids := inc.Arcs(int(u))
		for k, w := range to {
			if set[w] >= 0 {
				lca[ids[k]] = anc[find(w)]
			}
		}
	}
	u := int32(t.root)
	enter(u)
	for {
		if c := first[u]; c >= 0 { // descend into u's next child
			first[u] = next[c]
			u = c
			enter(u)
			continue
		}
		if int(u) == t.root {
			break
		}
		// u is finished: merge its set into its parent's.
		p := int32(t.parent[u])
		a, b := find(p), find(u)
		if rank[a] < rank[b] {
			a, b = b, a
		}
		set[b] = a
		if rank[a] == rank[b] {
			rank[a]++
		}
		anc[a] = p
		u = p
	}

	r := t.resToRoot
	var s float64
	for i, e := range edges {
		s += e.W * (r[e.U] + r[e.V] - 2*r[lca[i]])
	}
	return s
}

// Solve solves L_T x = b exactly in O(n), where L_T is the tree Laplacian.
// The right-hand side is first projected onto range(L_T) = 1⊥ (its mean is
// removed), and the returned potential vector has zero mean, making Solve
// a true pseudoinverse application x = L_T⁺ b.
//
// Mechanics: the net current into each subtree must flow through its root
// edge, so a post-order pass accumulates subtree sums (edge flows) and a
// pre-order pass integrates potential drops flow/w from the root down.
func (t *Tree) Solve(x, b []float64) {
	if len(x) != t.n || len(b) != t.n {
		panic("tree: Solve dimension mismatch")
	}
	// Projected RHS: subtract mean into flow accumulator (reuse x as scratch).
	var mean float64
	for _, v := range b {
		mean += v
	}
	mean /= float64(t.n)

	flow := x // alias: x doubles as the subtree-sum buffer
	for i, v := range b {
		flow[i] = v - mean
	}
	// Post-order: children before parents — reverse BFS order works.
	for i := t.n - 1; i >= 1; i-- {
		v := t.order[i]
		flow[t.parent[v]] += flow[v]
	}
	// Pre-order: potentials from root down. flow[v] now holds subtree sum.
	// x[v] = x[parent] + flow[v]/w(v,parent). Overwrite in BFS order; the
	// subtree sum of v is consumed exactly when v is visited. The root's
	// slot still holds its own subtree sum, Σ(b − mean) up to rounding, so
	// it is zeroed before any child reads it.
	x[t.root] = 0
	for i := 1; i < t.n; i++ {
		v := t.order[i]
		x[v] = x[t.parent[v]] + flow[v]/t.pw[v]
	}
	// Shift to zero mean so Solve == pseudoinverse.
	var m2 float64
	for _, v := range x {
		m2 += v
	}
	m2 /= float64(t.n)
	for i := range x {
		x[i] -= m2
	}
}
