// Package lsst extracts the spanning-tree backbone of §3.1(a): the
// max-weight (Kruskal) tree, whose high-conductance edges keep tree-path
// resistances low. It also computes exact per-edge and total stretch
// (eq. 4) through the LCA machinery of package tree.
package lsst

import (
	"fmt"
	"sort"

	"graphspar/internal/graph"
	"graphspar/internal/tree"
)

// Algorithm names the spanning-tree construction; MaxWeight is the only
// one. It stays a parameter of Extract because the benchmark harness
// (cmd/bench) calls Extract with it.
type Algorithm int

// MaxWeight picks the maximum-weight spanning tree: high-conductance
// edges have low resistance, so this greedily minimizes path resistances.
const MaxWeight Algorithm = 0

// UnionFind is a classic disjoint-set forest with path halving and union
// by rank.
type UnionFind struct {
	parent []int
	rank   []byte
	count  int
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{parent: make([]int, n), rank: make([]byte, n), count: n}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

// Find returns the representative of x's set.
func (u *UnionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of a and b, reporting whether a merge happened.
func (u *UnionFind) Union(a, b int) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.count--
	return true
}

// Count returns the number of disjoint sets.
func (u *UnionFind) Count() int { return u.count }

// MaxWeightSpanningTree returns the edge ids of a maximum-weight spanning
// tree (Kruskal on descending weight). A graph that cannot span a tree
// fails with graph.RequireConnected's error.
func MaxWeightSpanningTree(g *graph.Graph) ([]int, error) {
	if err := g.RequireConnected(); err != nil {
		return nil, err
	}
	ids := make([]int, g.M())
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return g.Edge(ids[a]).W > g.Edge(ids[b]).W })
	uf := NewUnionFind(g.N())
	treeIDs := make([]int, 0, g.N()-1)
	for _, id := range ids {
		e := g.Edge(id)
		if uf.Union(e.U, e.V) {
			treeIDs = append(treeIDs, id)
			if len(treeIDs) == g.N()-1 {
				break
			}
		}
	}
	return treeIDs, nil
}

// Extract builds the max-weight spanning tree and returns it rooted, its
// edge ids in g (exactly MaxWeightSpanningTree's, in the same order) and
// the off-tree edge ids. The root is the maximum-degree vertex (shallow
// trees help the O(n) solver's numerics). alg must be MaxWeight; seed is
// unused.
func Extract(g *graph.Graph, alg Algorithm, seed uint64) (*tree.Tree, []int, []int, error) {
	if alg != MaxWeight {
		return nil, nil, nil, fmt.Errorf("lsst: unknown algorithm %d", int(alg))
	}
	ids, err := MaxWeightSpanningTree(g)
	if err != nil {
		return nil, nil, nil, err
	}
	root := 0
	best := -1
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > best {
			best, root = d, v
		}
	}
	t, err := tree.FromGraph(g, ids, root)
	if err != nil {
		return nil, nil, nil, err
	}
	inTree := make([]bool, g.M())
	for _, id := range ids {
		inTree[id] = true
	}
	off := make([]int, 0, g.M()-len(ids))
	for i := 0; i < g.M(); i++ {
		if !inTree[i] {
			off = append(off, i)
		}
	}
	return t, ids, off, nil
}
