// Package graph defines the weighted undirected graph representation used
// by every graphspar subsystem, along with its Laplacian export (eq. 1 of
// the paper), adjacency structure, connectivity queries and subgraph
// extraction.
//
// Vertices are dense integers 0..n-1. Edges are stored once (u < v) in an
// edge list; a CSR-style adjacency index is built lazily and cached, so the
// zero-cost path for algorithms that only stream edges stays cheap.
package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"graphspar/internal/sparse"
)

// Common error conditions surfaced by constructors and validators.
var (
	ErrVertexRange   = errors.New("graph: vertex out of range")
	ErrSelfLoop      = errors.New("graph: self loop")
	ErrBadWeight     = errors.New("graph: edge weight must be positive and finite")
	ErrDisconnected  = errors.New("graph: graph is not connected")
	ErrEmpty         = errors.New("graph: graph has no vertices")
	ErrDuplicateEdge = errors.New("graph: duplicate edge")
)

// Edge is an undirected weighted edge with U < V.
type Edge struct {
	U, V int
	W    float64
}

// Graph is an undirected weighted graph. Construct with New or Builder
// functions; the zero value is an empty graph with no vertices. A Graph
// is immutable after construction and safe for concurrent readers: the
// lazily built adjacency index and Laplacian export are each guarded by
// a sync.Once, so one Graph may be shared between the service registry,
// job workers and a resident maintainer session without external
// locking.
//
// Immutability is also what makes sharing cheap: derived graphs
// (AddEdges with no extras, registry snapshots, session views) may
// alias the same backing edge slice instead of copying it. The contract
// is copy-on-write — any operation that would change the edge set
// builds a new slice and a new Graph, never writes through a shared
// one.
type Graph struct {
	n     int
	edges []Edge

	// Lazily built adjacency: for vertex u, neighbors are
	// adjTo[adjPtr[u]:adjPtr[u+1]] with parallel edge ids adjEdge.
	adjOnce sync.Once
	adjPtr  []int
	adjTo   []int
	adjEdge []int

	// Lazily built Laplacian CSR (eq. 1); immutable once published.
	lapOnce sync.Once
	lap     *sparse.CSR
}

// New builds a graph with n vertices from the given edges. Edges may be
// listed in either orientation; they are normalized to U < V. Duplicate
// edges (same endpoints) have their weights summed, matching how parallel
// resistors/conductances combine in the circuit interpretation.
// Self loops and non-positive or non-finite weights are rejected.
func New(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative vertex count %d", ErrVertexRange, n)
	}
	norm, err := normalizeEdges(n, edges)
	if err != nil {
		return nil, err
	}
	merged := norm[:0]
	for _, e := range norm {
		k := len(merged)
		if k > 0 && merged[k-1].U == e.U && merged[k-1].V == e.V {
			merged[k-1].W += e.W
		} else {
			merged = append(merged, e)
		}
	}
	g := &Graph{n: n, edges: append([]Edge(nil), merged...)}
	return g, nil
}

// normalizeEdges validates every edge (normalizeEdge) and returns a fresh
// (U,V)-sorted slice. Duplicates survive; callers merge them.
func normalizeEdges(n int, edges []Edge) ([]Edge, error) {
	norm := make([]Edge, 0, len(edges))
	for _, e := range edges {
		e, err := normalizeEdge(n, e, false)
		if err != nil {
			return nil, err
		}
		norm = append(norm, e)
	}
	sort.Slice(norm, func(i, j int) bool { return edgeLess(norm[i], norm[j]) })
	return norm, nil
}

// normalizeEdge checks one edge against the shared constructor rules —
// range, no self loops, positive finite weight (or exactly zero when
// zeroOK: Edit's spelling of a deletion) — and flips it to U < V.
func normalizeEdge(n int, e Edge, zeroOK bool) (Edge, error) {
	if e.U == e.V {
		return e, fmt.Errorf("%w: (%d,%d)", ErrSelfLoop, e.U, e.V)
	}
	if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
		return e, fmt.Errorf("%w: (%d,%d) with n=%d", ErrVertexRange, e.U, e.V, n)
	}
	if (!(e.W > 0) || e.W > 1e300) && !(zeroOK && e.W == 0) {
		return e, fmt.Errorf("%w: w(%d,%d)=%v", ErrBadWeight, e.U, e.V, e.W)
	}
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e, nil
}

// edgeLess is the (U,V) order every edge list is kept in.
func edgeLess(a, b Edge) bool {
	return a.U < b.U || (a.U == b.U && a.V < b.V)
}

// MustNew is New but panics on error; for tests and generators whose inputs
// are valid by construction.
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// ContentHash content-addresses the graph: sha256 over the vertex count
// and the normalized edge list (New guarantees U < V and (U,V)-sorted
// order, so structurally equal graphs hash equal regardless of the edge
// order they were supplied in). It is the one canonical fingerprint —
// the service registry and the session manager both compare these, so a
// single encoding must back them all.
func (g *Graph) ContentHash() string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(g.n))
	h.Write(buf[:])
	for _, e := range g.edges {
		binary.LittleEndian.PutUint64(buf[:], uint64(e.U))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(e.V))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e.W))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of (undirected) edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the internal edge slice, shared and strictly read-only.
//
// Ownership contract: the slice aliases the Graph's backing storage and
// may simultaneously back other Graphs derived from this one (see the
// immutable-share note on Graph). Callers must not mutate, sort, or
// append through it — doing so would corrupt every aliased view and the
// content hash. Use EdgesCopy when a mutable snapshot is needed.
func (g *Graph) Edges() []Edge { return g.edges }

// EdgesCopy returns a defensive copy of the edge list that the caller
// owns and may freely mutate. Prefer Edges on read-only paths — this
// accessor exists for the rare call site that needs to reorder or edit
// edges in place.
func (g *Graph) EdgesCopy() []Edge {
	return append([]Edge(nil), g.edges...)
}

// Edge returns the i-th edge.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for _, e := range g.edges {
		s += e.W
	}
	return s
}

// buildAdj constructs the CSR adjacency index once; concurrent callers
// synchronize on the Once so the index is published exactly once.
func (g *Graph) buildAdj() {
	g.adjOnce.Do(g.buildAdjLocked)
}

func (g *Graph) buildAdjLocked() {
	ptr := make([]int, g.n+1)
	for _, e := range g.edges {
		ptr[e.U+1]++
		ptr[e.V+1]++
	}
	for i := 0; i < g.n; i++ {
		ptr[i+1] += ptr[i]
	}
	to := make([]int, 2*len(g.edges))
	eid := make([]int, 2*len(g.edges))
	next := make([]int, g.n)
	copy(next, ptr[:g.n])
	for i, e := range g.edges {
		to[next[e.U]], eid[next[e.U]] = e.V, i
		next[e.U]++
		to[next[e.V]], eid[next[e.V]] = e.U, i
		next[e.V]++
	}
	g.adjPtr, g.adjTo, g.adjEdge = ptr, to, eid
}

// Neighbors calls fn(v, w, edgeID) for every edge incident to u.
// Iteration stops early if fn returns false.
func (g *Graph) Neighbors(u int, fn func(v int, w float64, edgeID int) bool) {
	g.buildAdj()
	for k := g.adjPtr[u]; k < g.adjPtr[u+1]; k++ {
		e := g.edges[g.adjEdge[k]]
		if !fn(g.adjTo[k], e.W, g.adjEdge[k]) {
			return
		}
	}
}

// Degree returns the number of edges incident to u.
func (g *Graph) Degree(u int) int {
	g.buildAdj()
	return g.adjPtr[u+1] - g.adjPtr[u]
}

// WeightedDegree returns the sum of weights of edges incident to u — the
// diagonal entry L(u,u) of the Laplacian.
func (g *Graph) WeightedDegree(u int) float64 {
	g.buildAdj()
	var s float64
	for k := g.adjPtr[u]; k < g.adjPtr[u+1]; k++ {
		s += g.edges[g.adjEdge[k]].W
	}
	return s
}

// WeightedDegrees returns all Laplacian diagonal entries at once.
func (g *Graph) WeightedDegrees() []float64 {
	d := make([]float64, g.n)
	for _, e := range g.edges {
		d[e.U] += e.W
		d[e.V] += e.W
	}
	return d
}

// Laplacian exports L_G as defined by eq. 1:
// off-diagonal (p,q) = -w(p,q), diagonal (p,p) = Σ w(p,·).
//
// The CSR is built once and cached behind a sync.Once (the Graph is
// immutable), so repeat exports on a hot graph — e.g. back-to-back jobs
// against the same registry entry — skip the rebuild entirely. The
// returned matrix is shared: callers must treat it as read-only.
func (g *Graph) Laplacian() *sparse.CSR {
	g.lapOnce.Do(func() {
		b := sparse.NewBuilder(g.n, g.n)
		for _, e := range g.edges {
			b.Add(e.U, e.V, -e.W)
			b.Add(e.V, e.U, -e.W)
			b.Add(e.U, e.U, e.W)
			b.Add(e.V, e.V, e.W)
		}
		g.lap = b.Build()
	})
	return g.lap
}

// LapMulVec computes y = L_G x directly from the edge list, without
// materializing the Laplacian — the hot operation inside power iterations.
func (g *Graph) LapMulVec(y, x []float64) {
	if len(x) != g.n || len(y) != g.n {
		panic("graph: LapMulVec dimension mismatch")
	}
	for i := range y {
		y[i] = 0
	}
	for _, e := range g.edges {
		d := x[e.U] - x[e.V]
		y[e.U] += e.W * d
		y[e.V] -= e.W * d
	}
}

// LapQuadForm returns xᵀ L_G x = Σ_(u,v)∈E w(u,v)·(x(u)−x(v))² — the
// Laplacian quadratic form central to spectral similarity (eq. 2).
func (g *Graph) LapQuadForm(x []float64) float64 {
	if len(x) != g.n {
		panic("graph: LapQuadForm dimension mismatch")
	}
	var s float64
	for _, e := range g.edges {
		d := x[e.U] - x[e.V]
		s += e.W * d * d
	}
	return s
}

// Components labels each vertex with a component id (0-based, in order of
// discovery) and returns the labels along with the number of components.
func (g *Graph) Components() (labels []int, count int) {
	g.buildAdj()
	labels = make([]int, g.n)
	for i := range labels {
		labels[i] = -1
	}
	var stack []int
	for s := 0; s < g.n; s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = count
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for k := g.adjPtr[u]; k < g.adjPtr[u+1]; k++ {
				v := g.adjTo[k]
				if labels[v] == -1 {
					labels[v] = count
					stack = append(stack, v)
				}
			}
		}
		count++
	}
	return labels, count
}

// IsConnected reports whether the graph is connected (true for the empty
// and single-vertex graphs).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	_, c := g.Components()
	return c == 1
}

// RequireConnected returns ErrDisconnected unless the graph is connected
// and non-empty; sparsification and solver entry points call this because
// the whole framework (tree backbone, null space handling) assumes it.
func (g *Graph) RequireConnected() error {
	if g.n == 0 {
		return ErrEmpty
	}
	if !g.IsConnected() {
		return ErrDisconnected
	}
	return nil
}

// SubgraphEdges returns a new graph on the same vertex set containing only
// the edges whose ids are listed. Ids must be valid and distinct.
func (g *Graph) SubgraphEdges(edgeIDs []int) (*Graph, error) {
	seen := make([]bool, len(g.edges))
	es := make([]Edge, 0, len(edgeIDs))
	for _, id := range edgeIDs {
		if id < 0 || id >= len(g.edges) {
			return nil, fmt.Errorf("graph: edge id %d out of range", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("%w: id %d", ErrDuplicateEdge, id)
		}
		seen[id] = true
		es = append(es, g.edges[id])
	}
	return New(g.n, es)
}

// BFSOrder returns vertices in breadth-first order from root, together
// with each vertex's BFS parent (-1 for root and unreachable vertices).
func (g *Graph) BFSOrder(root int) (order []int, parent []int) {
	g.buildAdj()
	parent = make([]int, g.n)
	visited := make([]bool, g.n)
	for i := range parent {
		parent[i] = -1
	}
	order = make([]int, 0, g.n)
	queue := []int{root}
	visited[root] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for k := g.adjPtr[u]; k < g.adjPtr[u+1]; k++ {
			v := g.adjTo[k]
			if !visited[v] {
				visited[v] = true
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return order, parent
}

// EdgeIndex builds a map from normalized (u,v) keys to edge ids, for
// membership tests such as "is this off-tree edge already in the sparsifier".
func (g *Graph) EdgeIndex() map[[2]int]int {
	idx := make(map[[2]int]int, len(g.edges))
	for i, e := range g.edges {
		idx[[2]int{e.U, e.V}] = i
	}
	return idx
}

// FindEdge returns the id of the edge between u and v, by binary search on
// the (U,V)-sorted edge list: no adjacency index, no map. It is a function
// rather than a method so the facade's Graph alias gains no symbol.
func FindEdge(g *Graph, u, v int) (int, bool) {
	if u > v {
		u, v = v, u
	}
	i := searchEdges(g.edges, Edge{U: u, V: v})
	return i, i < len(g.edges) && g.edges[i].U == u && g.edges[i].V == v
}

// searchEdges returns the first position of the sorted list es whose pair
// is not before e's.
func searchEdges(es []Edge, e Edge) int {
	return sort.Search(len(es), func(i int) bool { return !edgeLess(es[i], e) })
}

// HasEdge reports whether an edge between u and v exists.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := FindEdge(g, u, v)
	return ok
}

// AddEdges returns a new graph with extra edges appended (weights of
// coincident edges merge). The receiver is unchanged.
//
// The receiver's edge list is already sorted and deduplicated, so only
// the extras are sorted and the two lists merge in O(m+k log k) — the
// densification loop in core calls this once per round, and the old
// copy-everything-and-resort path dominated its profile. With no extras
// the receiver's edge slice is shared outright (immutable-share, see
// the Graph doc).
func (g *Graph) AddEdges(extra []Edge) (*Graph, error) {
	if len(extra) == 0 {
		return &Graph{n: g.n, edges: g.edges}, nil
	}
	norm, err := normalizeEdges(g.n, extra)
	if err != nil {
		return nil, err
	}
	// Merge duplicates among the extras themselves.
	merged := norm[:0]
	for _, e := range norm {
		k := len(merged)
		if k > 0 && merged[k-1].U == e.U && merged[k-1].V == e.V {
			merged[k-1].W += e.W
		} else {
			merged = append(merged, e)
		}
	}
	// Two-way merge of the sorted lists.
	out := make([]Edge, 0, len(g.edges)+len(merged))
	i, j := 0, 0
	for i < len(g.edges) && j < len(merged) {
		a, b := g.edges[i], merged[j]
		switch {
		case edgeLess(a, b):
			out = append(out, a)
			i++
		case edgeLess(b, a):
			out = append(out, b)
			j++
		default:
			out = append(out, Edge{U: a.U, V: a.V, W: a.W + b.W})
			i++
			j++
		}
	}
	out = append(out, g.edges[i:]...)
	out = append(out, merged[j:]...)
	return &Graph{n: g.n, edges: out}, nil
}

// Edit applies a list of edge edits to g in one merge walk over its sorted
// edge list. An edit with W > 0 sets its pair's weight, inserting the edge
// if it is absent; W == 0 deletes the pair (a no-op if absent); when
// several edits name one pair the last wins. It returns the edited graph
// and, in (U,V) order, the signed weight change of every pair whose weight
// moved (the full weight for an insertion, its negation for a deletion) —
// the rank-1 perturbations a factor of g's Laplacian needs to follow the
// edit. The receiver is unchanged; edits is normalized and sorted in
// place. A function, not a method, for FindEdge's reason.
func Edit(g *Graph, edits []Edge) (*Graph, []Edge, error) {
	if len(edits) == 0 {
		return g, nil, nil
	}
	for i, e := range edits {
		e, err := normalizeEdge(g.n, e, true)
		if err != nil {
			return nil, nil, err
		}
		edits[i] = e
	}
	sort.SliceStable(edits, func(i, j int) bool { return edgeLess(edits[i], edits[j]) })
	out := make([]Edge, 0, len(g.edges)+len(edits))
	var deltas []Edge
	rest := g.edges
	for j, e := range edits {
		if j+1 < len(edits) && !edgeLess(e, edits[j+1]) {
			continue // a later edit of the same pair overrides this one
		}
		at := searchEdges(rest, e)
		out = append(out, rest[:at]...)
		rest = rest[at:]
		old := 0.0
		if len(rest) > 0 && !edgeLess(e, rest[0]) {
			old, rest = rest[0].W, rest[1:]
		}
		if e.W > 0 {
			out = append(out, e)
		}
		if d := e.W - old; d != 0 {
			deltas = append(deltas, Edge{U: e.U, V: e.V, W: d})
		}
	}
	return &Graph{n: g.n, edges: append(out, rest...)}, deltas, nil
}

// InducedSubgraph returns the subgraph induced by the given vertex set,
// with vertices renumbered 0..len(vertices)-1 in the given order, plus the
// mapping new→old. Duplicate or out-of-range vertices are rejected.
func (g *Graph) InducedSubgraph(vertices []int) (*Graph, []int, error) {
	toNew := make([]int, g.n) // old id → new id + 1; 0 = not in the set
	for newID, old := range vertices {
		if old < 0 || old >= g.n {
			return nil, nil, fmt.Errorf("%w: vertex %d", ErrVertexRange, old)
		}
		if toNew[old] != 0 {
			return nil, nil, fmt.Errorf("graph: duplicate vertex %d in induced set", old)
		}
		toNew[old] = newID + 1
	}
	var edges []Edge
	for _, e := range g.edges {
		if u, v := toNew[e.U], toNew[e.V]; u != 0 && v != 0 {
			edges = append(edges, Edge{U: u - 1, V: v - 1, W: e.W})
		}
	}
	sub, err := New(len(vertices), edges)
	if err != nil {
		return nil, nil, err
	}
	return sub, append([]int(nil), vertices...), nil
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.n, len(g.edges))
}
