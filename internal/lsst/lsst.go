// Package lsst extracts the spanning-tree backbones of §3.1(a): a
// max-weight (Kruskal) tree, a shortest-path (Dijkstra) tree, and an
// AKPW-style low-stretch spanning tree built by weight-class ball-growing
// decomposition [Abraham–Neiman STOC'12, Elkin et al. SICOMP'08 lineage].
// It also computes exact per-edge and total stretch (eq. 4) through the
// LCA machinery of package tree.
package lsst

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"

	"graphspar/internal/graph"
	"graphspar/internal/tree"
	"graphspar/internal/vecmath"
)

// ErrNotConnected is returned when the input graph cannot span a tree.
var ErrNotConnected = errors.New("lsst: graph is not connected")

// Algorithm selects the spanning-tree construction.
type Algorithm int

// Supported algorithms.
const (
	// MaxWeight picks the maximum-weight spanning tree: high-conductance
	// edges have low resistance, so this greedily minimizes path
	// resistances. The classic practical backbone.
	MaxWeight Algorithm = iota
	// Dijkstra grows a shortest-path tree (lengths 1/w) from a
	// high-degree center.
	Dijkstra
	// AKPW runs the weight-class ball-growing decomposition, the
	// low-stretch construction the paper cites [1, 8].
	AKPW
)

// String names the algorithm for flags and logs.
func (a Algorithm) String() string {
	switch a {
	case MaxWeight:
		return "maxweight"
	case Dijkstra:
		return "dijkstra"
	case AKPW:
		return "akpw"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Parse is the inverse of String, for flags and wire formats. The empty
// string maps to the MaxWeight default.
func Parse(name string) (Algorithm, error) {
	switch name {
	case "", "maxweight":
		return MaxWeight, nil
	case "dijkstra":
		return Dijkstra, nil
	case "akpw":
		return AKPW, nil
	default:
		return 0, fmt.Errorf("lsst: unknown tree algorithm %q", name)
	}
}

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
// tree (Kruskal on descending weight).
func MaxWeightSpanningTree(g *graph.Graph) ([]int, error) {
	if err := g.RequireConnected(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotConnected, err)
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

type dijkItem struct {
	v    int
	dist float64
}

type dijkHeap []dijkItem

func (h dijkHeap) Len() int            { return len(h) }
func (h dijkHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h dijkHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *dijkHeap) Push(x interface{}) { *h = append(*h, x.(dijkItem)) }
func (h *dijkHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// DijkstraTree returns the edge ids of a shortest-path tree from source,
// with edge lengths 1/w.
func DijkstraTree(g *graph.Graph, source int) ([]int, error) {
	if err := g.RequireConnected(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotConnected, err)
	}
	if source < 0 || source >= g.N() {
		return nil, fmt.Errorf("lsst: source %d out of range", source)
	}
	n := g.N()
	dist := make([]float64, n)
	parentEdge := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parentEdge[i] = -1
	}
	dist[source] = 0
	h := &dijkHeap{{source, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(dijkItem)
		if done[it.v] {
			continue
		}
		done[it.v] = true
		g.Neighbors(it.v, func(u int, w float64, id int) bool {
			nd := it.dist + 1/w
			if nd < dist[u] {
				dist[u] = nd
				parentEdge[u] = id
				heap.Push(h, dijkItem{u, nd})
			}
			return true
		})
	}
	treeIDs := make([]int, 0, n-1)
	for v := 0; v < n; v++ {
		if v != source {
			if parentEdge[v] == -1 {
				return nil, ErrNotConnected
			}
			treeIDs = append(treeIDs, parentEdge[v])
		}
	}
	return treeIDs, nil
}

// AKPWTree returns the edge ids of an AKPW-style low-stretch spanning tree.
//
// Edges are bucketed into geometric length classes (length = 1/w, factor
// mu). Classes are processed from strongest to weakest; within each class
// the algorithm grows BFS balls over the current *cluster graph* (vertices
// contracted by a union–find), stopping a ball when its boundary has at
// most boundary/volume ratio 1/2, then adds the BFS tree edges to the
// forest and contracts. Remaining inter-cluster edges stay active for
// later classes; a final Kruskal sweep guarantees a spanning tree.
func AKPWTree(g *graph.Graph, seed uint64) ([]int, error) {
	if err := g.RequireConnected(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotConnected, err)
	}
	n, m := g.N(), g.M()
	if n == 1 {
		return []int{}, nil
	}
	const mu = 8.0
	rng := vecmath.NewRNG(seed)

	// Classify edges by length.
	minLen := math.Inf(1)
	for _, e := range g.Edges() {
		if l := 1 / e.W; l < minLen {
			minLen = l
		}
	}
	class := make([]int, m)
	maxClass := 0
	for i, e := range g.Edges() {
		c := 0
		if l := (1 / e.W) / minLen; l > 1 {
			c = int(math.Log(l) / math.Log(mu))
		}
		class[i] = c
		if c > maxClass {
			maxClass = c
		}
	}
	byClass := make([][]int, maxClass+1)
	for i, c := range class {
		byClass[c] = append(byClass[c], i)
	}

	uf := NewUnionFind(n)
	treeIDs := make([]int, 0, n-1)
	active := make([]int, 0, m) // inter-cluster edges from processed classes

	// Scratch for cluster-graph BFS.
	clusterIdx := make(map[int]int) // union-find root -> compact id

	for c := 0; c <= maxClass && uf.Count() > 1; c++ {
		active = append(active, byClass[c]...)
		// Compact: drop intra-cluster edges.
		kept := active[:0]
		for _, id := range active {
			e := g.Edge(id)
			if uf.Find(e.U) != uf.Find(e.V) {
				kept = append(kept, id)
			}
		}
		active = kept
		if len(active) == 0 {
			continue
		}

		// Build the cluster graph for this round.
		for k := range clusterIdx {
			delete(clusterIdx, k)
		}
		cid := func(v int) int {
			r := uf.Find(v)
			if i, ok := clusterIdx[r]; ok {
				return i
			}
			i := len(clusterIdx)
			clusterIdx[r] = i
			return i
		}
		type cedge struct{ to, origID, next int }
		head := map[int]int{}
		cedges := make([]cedge, 0, 2*len(active))
		addC := func(a, b, id int) {
			h, ok := head[a]
			if !ok {
				h = -1
			}
			cedges = append(cedges, cedge{b, id, h})
			head[a] = len(cedges) - 1
		}
		for _, id := range active {
			e := g.Edge(id)
			a, b := cid(e.U), cid(e.V)
			addC(a, b, id)
			addC(b, a, id)
		}
		nc := len(clusterIdx)

		// Ball growing over the cluster graph. Within a layer, parallel
		// cluster edges are resolved to the heaviest original edge so the
		// tree path through the contraction stays low-resistance.
		visited := make([]int8, nc)
		queued := make([]int8, nc)
		parentOrig := make([]int, nc)
		order := rng.Perm(nc)
		maxRadius := 1 + int(math.Log2(float64(nc)+1))
		var frontier, nextFrontier []int
		for _, s := range order {
			if visited[s] != 0 {
				continue
			}
			visited[s] = 1
			frontier = frontier[:0]
			frontier = append(frontier, s)
			ballEdges := 0
			for radius := 0; radius < maxRadius && len(frontier) > 0; radius++ {
				nextFrontier = nextFrontier[:0]
				boundary := 0
				for _, u := range frontier {
					h, ok := head[u]
					if !ok {
						continue
					}
					for k := h; k != -1; k = cedges[k].next {
						v := cedges[k].to
						if visited[v] != 0 {
							continue
						}
						if queued[v] == 0 {
							queued[v] = 1
							parentOrig[v] = cedges[k].origID
							nextFrontier = append(nextFrontier, v)
							boundary++
						} else if g.Edge(cedges[k].origID).W > g.Edge(parentOrig[v]).W {
							parentOrig[v] = cedges[k].origID
						}
					}
				}
				for _, v := range nextFrontier {
					visited[v] = 1
					queued[v] = 0
					e := g.Edge(parentOrig[v])
					if uf.Union(e.U, e.V) {
						treeIDs = append(treeIDs, parentOrig[v])
					}
				}
				ballEdges += boundary
				frontier, nextFrontier = nextFrontier, frontier
				// Region-growing stop: boundary small relative to volume.
				if boundary*2 <= ballEdges && radius >= 1 {
					break
				}
			}
		}
	}

	// Guarantee spanning: Kruskal sweep over the remaining edges by weight.
	if uf.Count() > 1 {
		ids := make([]int, m)
		for i := range ids {
			ids[i] = i
		}
		sort.Slice(ids, func(a, b int) bool { return g.Edge(ids[a]).W > g.Edge(ids[b]).W })
		for _, id := range ids {
			e := g.Edge(id)
			if uf.Union(e.U, e.V) {
				treeIDs = append(treeIDs, id)
				if uf.Count() == 1 {
					break
				}
			}
		}
	}
	if len(treeIDs) != n-1 {
		return nil, fmt.Errorf("lsst: internal error, %d tree edges for n=%d", len(treeIDs), n)
	}
	return treeIDs, nil
}

// Extract builds a spanning tree with the chosen algorithm and returns the
// rooted tree, its edge ids in g, and the off-tree edge ids. The root is
// the maximum-degree vertex (shallow trees help the O(n) solver's
// numerics and the Dijkstra backbone).
func Extract(g *graph.Graph, alg Algorithm, seed uint64) (*tree.Tree, []int, []int, error) {
	root := 0
	best := -1
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > best {
			best, root = d, v
		}
	}
	var (
		ids []int
		err error
	)
	switch alg {
	case MaxWeight:
		ids, err = MaxWeightSpanningTree(g)
	case Dijkstra:
		ids, err = DijkstraTree(g, root)
	case AKPW:
		ids, err = AKPWTree(g, seed)
	default:
		return nil, nil, nil, fmt.Errorf("lsst: unknown algorithm %v", alg)
	}
	if err != nil {
		return nil, nil, nil, err
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
