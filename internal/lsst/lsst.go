// Package lsst extracts the spanning-tree backbone of §3.1(a): the
// max-weight (Kruskal) tree, whose high-conductance edges keep tree-path
// resistances low. Package tree computes the backbone's exact per-edge
// and total stretch (eq. 4).
package lsst

import (
	"cmp"
	"fmt"
	"slices"

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

// Heaviest is the backbone rule of §3.1 applied to a set of candidate
// edges: it sorts ids in place by (weight desc, id asc) and unions each
// edge into uf in that order. joined holds the ids whose union merged two
// sets, rest the others, both in sweep order. Equal weights never leave
// the choice to the sort algorithm. The sharded plan's stitch and the
// maintainer's tree repair call it.
func Heaviest(g *graph.Graph, ids []int, uf *UnionFind) (joined, rest []int) {
	slices.SortFunc(ids, func(a, b int) int {
		if wa, wb := g.Edge(a).W, g.Edge(b).W; wa != wb {
			return cmp.Compare(wb, wa)
		}
		return cmp.Compare(a, b)
	})
	for _, id := range ids {
		if e := g.Edge(id); uf.Union(e.U, e.V) {
			joined = append(joined, id)
		} else {
			rest = append(rest, id)
		}
	}
	return joined, rest
}

// MaxWeightSpanningTree returns the edge ids of a maximum-weight spanning
// tree (Kruskal on descending weight). A graph that cannot span a tree
// fails with graph.RequireConnected's error.
//
// Unlike Heaviest, the sort compares weights only, so equal weights land
// where pdqsort's comparisons leave them, starting from id order; every
// sparsifier in the pipeline golden depends on that tie order, and on
// unit-weight SBM graphs the certificate's quality does too.
func MaxWeightSpanningTree(g *graph.Graph) ([]int, error) {
	if err := g.RequireConnected(); err != nil {
		return nil, err
	}
	type weighted struct {
		w  float64
		id int
	}
	order := make([]weighted, g.M())
	for id, e := range g.Edges() {
		order[id] = weighted{e.W, id}
	}
	slices.SortFunc(order, func(a, b weighted) int { return cmp.Compare(b.w, a.w) })
	uf := NewUnionFind(g.N())
	treeIDs := make([]int, 0, g.N()-1)
	for _, o := range order {
		if e := g.Edge(o.id); uf.Union(e.U, e.V) {
			treeIDs = append(treeIDs, o.id)
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
	// Degrees counted from the edge list: no incidence lists needed.
	deg := make([]int32, g.N())
	for _, e := range g.Edges() {
		deg[e.U]++
		deg[e.V]++
	}
	root := 0
	best := int32(-1)
	for v, d := range deg {
		if d > best { // ties to the lowest id
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
