// Package tree implements rooted spanning trees: construction from edge
// lists, Euler-tour LCA with O(1) queries, tree-path effective resistances
// (the ingredient of edge stretch, §3.3 of the paper), and the exact O(n)
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
	parent []int     // parent[v], -1 for root
	pw     []float64 // weight of edge (v, parent[v]); 0 for root
	order  []int     // vertices in BFS order from root (parents precede children)
	edges  []graph.Edge

	// LCA structures (built lazily by ensureLCA).
	eulerFirst []int // first occurrence of v in the Euler tour
	eulerDepth []int // depth at each tour position
	eulerVert  []int // vertex at each tour position
	sparse     [][]int32
	resToRoot  []float64 // Σ 1/w along root→v path
	depth      []int
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
		n:      n,
		root:   root,
		parent: parent,
		pw:     make([]float64, n),
		order:  order,
		edges:  append([]graph.Edge(nil), g.Edges()...),
		depth:  make([]int, n),
	}
	// Fill parent weights and depths in BFS order.
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
		t.depth[v] = t.depth[p] + 1
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

// N returns the vertex count.
func (t *Tree) N() int { return t.n }

// Root returns the root vertex.
func (t *Tree) Root() int { return t.root }

// Parent returns v's parent (-1 for the root).
func (t *Tree) Parent(v int) int { return t.parent[v] }

// Depth returns the number of edges between v and the root.
func (t *Tree) Depth(v int) int { return t.depth[v] }

// Edges returns the tree's edge list (normalized, U < V).
func (t *Tree) Edges() []graph.Edge { return t.edges }

// Graph returns the tree as a *graph.Graph on the same vertex set.
func (t *Tree) Graph() *graph.Graph {
	return graph.MustNew(t.n, t.edges)
}

// ensureLCA builds the Euler tour and sparse-table RMQ structures.
func (t *Tree) ensureLCA() {
	if t.eulerFirst != nil {
		return
	}
	// Children lists in BFS order.
	childPtr := make([]int, t.n+1)
	for _, v := range t.order {
		if p := t.parent[v]; p != -1 {
			childPtr[p+1]++
		}
	}
	for i := 0; i < t.n; i++ {
		childPtr[i+1] += childPtr[i]
	}
	children := make([]int, t.n-1+1)
	next := make([]int, t.n)
	copy(next, childPtr[:t.n])
	for _, v := range t.order {
		if p := t.parent[v]; p != -1 {
			children[next[p]] = v
			next[p]++
		}
	}

	tourLen := 2*t.n - 1
	t.eulerVert = make([]int, 0, tourLen)
	t.eulerDepth = make([]int, 0, tourLen)
	t.eulerFirst = make([]int, t.n)
	for i := range t.eulerFirst {
		t.eulerFirst[i] = -1
	}
	// Iterative Euler tour.
	type frame struct{ v, ci int }
	stack := []frame{{t.root, 0}}
	visit := func(v int) {
		if t.eulerFirst[v] == -1 {
			t.eulerFirst[v] = len(t.eulerVert)
		}
		t.eulerVert = append(t.eulerVert, v)
		t.eulerDepth = append(t.eulerDepth, t.depth[v])
	}
	visit(t.root)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		lo, hi := childPtr[f.v], childPtr[f.v+1]
		if f.ci < hi-lo {
			c := children[lo+f.ci]
			f.ci++
			stack = append(stack, frame{c, 0})
			visit(c)
		} else {
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				visit(stack[len(stack)-1].v)
			}
		}
	}

	// Sparse table over eulerDepth (argmin positions).
	m := len(t.eulerVert)
	levels := 1
	for 1<<levels <= m {
		levels++
	}
	t.sparse = make([][]int32, levels)
	t.sparse[0] = make([]int32, m)
	for i := 0; i < m; i++ {
		t.sparse[0][i] = int32(i)
	}
	for j := 1; j < levels; j++ {
		span := 1 << j
		t.sparse[j] = make([]int32, m-span+1)
		for i := 0; i+span <= m; i++ {
			a := t.sparse[j-1][i]
			b := t.sparse[j-1][i+span/2]
			if t.eulerDepth[a] <= t.eulerDepth[b] {
				t.sparse[j][i] = a
			} else {
				t.sparse[j][i] = b
			}
		}
	}

	// Root-to-vertex path resistances.
	t.resToRoot = make([]float64, t.n)
	for _, v := range t.order {
		if p := t.parent[v]; p != -1 {
			t.resToRoot[v] = t.resToRoot[p] + 1/t.pw[v]
		}
	}
}

// LCA returns the lowest common ancestor of u and v in O(1) after an
// O(n log n) build.
func (t *Tree) LCA(u, v int) int {
	t.ensureLCA()
	a, b := t.eulerFirst[u], t.eulerFirst[v]
	if a > b {
		a, b = b, a
	}
	span := b - a + 1
	j := 0
	for 1<<(j+1) <= span {
		j++
	}
	p := t.sparse[j][a]
	q := t.sparse[j][b-(1<<j)+1]
	if t.eulerDepth[p] <= t.eulerDepth[q] {
		return t.eulerVert[p]
	}
	return t.eulerVert[q]
}

// PathResistance returns Σ 1/w over the unique tree path between u and v —
// the tree effective resistance R_P(u,v) (eq. 9 in the tree case).
func (t *Tree) PathResistance(u, v int) float64 {
	t.ensureLCA()
	l := t.LCA(u, v)
	return t.resToRoot[u] + t.resToRoot[v] - 2*t.resToRoot[l]
}

// Stretch returns the stretch of an off-tree (or tree) edge per §3.3:
// st(e) = w_e · R_P(u,v). Tree edges have stretch exactly 1.
func (t *Tree) Stretch(e graph.Edge) float64 {
	return e.W * t.PathResistance(e.U, e.V)
}

// TotalStretch returns st_P(G) = Σ_{e∈G} st(e) over all edges of g,
// which equals Trace(L_P⁺ L_G) (eq. 4).
func (t *Tree) TotalStretch(g *graph.Graph) float64 {
	var s float64
	for _, e := range g.Edges() {
		s += t.Stretch(e)
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
	// subtree sum of v is consumed exactly when v is visited.
	for i := 1; i < t.n; i++ {
		v := t.order[i]
		x[v] = x[t.parent[v]] + flow[v]/t.pw[v]
	}
	x[t.root] = 0
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
