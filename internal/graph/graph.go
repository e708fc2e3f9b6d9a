// Package graph defines the weighted undirected graph representation used
// by every graphspar subsystem, along with its Laplacian export (eq. 1 of
// the paper), adjacency structure, connectivity queries and subgraph
// extraction.
//
// Vertices are dense integers 0..n-1. Edges are stored once (u < v) in an
// edge list, which is all a Graph keeps: a walk that needs neighbour lists
// builds a transient Incidence and drops it.
package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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
// lazily built Laplacian export is guarded by a sync.Once and the
// connectivity verdict is an atomic, so one Graph may be shared between
// the service registry, job workers and a resident maintainer session
// without external locking.
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

	// Lazily built Laplacian CSR (eq. 1); immutable once published.
	lapOnce sync.Once
	lap     *sparse.CSR

	// conn caches IsConnected: connUnknown until the first query.
	conn atomic.Int32
}

// Values of Graph.conn.
const (
	connUnknown int32 = iota
	connYes
	connNo
)

// New builds a graph with n vertices from the given edges. Edges may be
// listed in either orientation; they are normalized to U < V. Duplicate
// edges (same endpoints) have their weights summed, matching how parallel
// resistors/conductances combine in the circuit interpretation.
// Self loops and non-positive or non-finite weights are rejected.
//
// Sorted input costs O(m): a list whose normalized pairs are strictly
// increasing in (U,V) order — as any list filtered, or relabelled
// monotonically, from another Graph's edges is — is validated and copied
// but never sorted. Any other input is sorted in O(m log m).
func New(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative vertex count %d", ErrVertexRange, n)
	}
	norm, err := normalizeEdges(n, edges)
	if err != nil {
		return nil, err
	}
	merged := mergeDuplicates(norm)
	if len(merged) < len(norm) {
		merged = append([]Edge(nil), merged...) // drop the merged-away tail
	}
	return &Graph{n: n, edges: merged}, nil
}

// normalizeEdges validates every edge (normalizeEdge) and returns a fresh
// (U,V)-sorted slice. Duplicates survive; callers merge them. A list that
// comes out strictly increasing is not sorted again.
func normalizeEdges(n int, edges []Edge) ([]Edge, error) {
	norm := make([]Edge, 0, len(edges))
	sorted := true
	for _, e := range edges {
		e, err := normalizeEdge(n, e, false)
		if err != nil {
			return nil, err
		}
		if k := len(norm); k > 0 && !edgeLess(norm[k-1], e) {
			sorted = false
		}
		norm = append(norm, e)
	}
	if !sorted {
		sort.Slice(norm, func(i, j int) bool { return edgeLess(norm[i], norm[j]) })
	}
	return norm, nil
}

// mergeDuplicates sums the weights of adjacent equal pairs of a sorted
// list in place and returns the shortened prefix.
func mergeDuplicates(norm []Edge) []Edge {
	merged := norm[:0]
	for _, e := range norm {
		k := len(merged)
		if k > 0 && merged[k-1].U == e.U && merged[k-1].V == e.V {
			merged[k-1].W += e.W
		} else {
			merged = append(merged, e)
		}
	}
	return merged
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

// ContentHash content-addresses the graph: sha256 over the vertex count
// and the normalized edge list (New guarantees U < V and (U,V)-sorted
// order, so structurally equal graphs hash equal regardless of the edge
// order they were supplied in). It is the one canonical fingerprint —
// the service registry and the session manager both compare these, so a
// single encoding must back them all.
func (g *Graph) ContentHash() string {
	h := sha256.New()
	var buf [24 * 128]byte // whole edges, hashed a chunk at a time
	b := binary.LittleEndian.AppendUint64(buf[:0], uint64(g.n))
	for _, e := range g.edges {
		if len(b)+24 > len(buf) {
			h.Write(b)
			b = buf[:0]
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(e.U))
		b = binary.LittleEndian.AppendUint64(b, uint64(e.V))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.W))
	}
	h.Write(b)
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

// Bytes estimates the heap g's edge list holds: 24 B an edge.
func (g *Graph) Bytes() int64 { return int64(len(g.edges)) * 24 }

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
// It walks a transient Incidence, as BFSOrder does.
func (g *Graph) Components() (labels []int, count int) {
	in := NewIncidence(g)
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
			to, _ := in.Arcs(u)
			for _, v := range to {
				if labels[v] == -1 {
					labels[v] = count
					stack = append(stack, int(v))
				}
			}
		}
		count++
	}
	return labels, count
}

// IsConnected reports whether the graph is connected (true for the empty
// and single-vertex graphs). The answer is one union-find pass over the
// edge list — it builds no adjacency index — computed once per Graph and
// cached; AddEdges passes a "connected" verdict on to its result.
func (g *Graph) IsConnected() bool {
	if c := g.conn.Load(); c != connUnknown {
		return c == connYes
	}
	c := connNo
	if spans(g.n, g.edges) {
		c = connYes
	}
	g.conn.Store(c)
	return c == connYes
}

// spans reports whether edges join all n vertices into one component:
// union-find over a transient int32 parent array with path halving,
// stopping as soon as one set remains.
func spans(n int, edges []Edge) bool {
	sets := n
	if sets <= 1 {
		return true
	}
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		ru, rv := find(int32(e.U)), find(int32(e.V))
		if ru == rv {
			continue
		}
		parent[max(ru, rv)] = min(ru, rv)
		if sets--; sets == 1 {
			return true
		}
	}
	return false
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
// the edges whose ids are listed, in any order. Ids must be valid and
// distinct. The kept edges are gathered in id order, which is (U,V)
// order, so the result costs O(m) and is never sorted.
func (g *Graph) SubgraphEdges(edgeIDs []int) (*Graph, error) {
	seen := make([]bool, len(g.edges))
	for _, id := range edgeIDs {
		if id < 0 || id >= len(g.edges) {
			return nil, fmt.Errorf("graph: edge id %d out of range", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("%w: id %d", ErrDuplicateEdge, id)
		}
		seen[id] = true
	}
	es := make([]Edge, 0, len(edgeIDs))
	for id, keep := range seen {
		if keep {
			es = append(es, g.edges[id])
		}
	}
	return &Graph{n: g.n, edges: es}, nil
}

// BFSOrder returns vertices in breadth-first order from root, together
// with each vertex's BFS parent (-1 for root and unreachable vertices).
// It walks a transient Incidence, so it leaves no index on g.
func (g *Graph) BFSOrder(root int) (order []int, parent []int) {
	return NewIncidence(g).BFSOrder(root)
}

// Incidence is a graph's adjacency as an int32 CSR (so a graph may hold
// up to 2³⁰ edges): each vertex's neighbours, and the ids of the edges
// that join them, in edge id order. A Graph keeps none: every neighbour
// walk builds its own and drops it, and a caller that walks twice builds
// it once.
type Incidence struct {
	ptr, to, ids []int32
}

// NewIncidence builds g's incidence lists in O(n + m). It is a function
// rather than a method for FindEdge's reason.
func NewIncidence(g *Graph) *Incidence {
	ptr := make([]int32, g.n+1)
	for _, e := range g.edges {
		ptr[e.U+1]++
		ptr[e.V+1]++
	}
	for u := 0; u < g.n; u++ {
		ptr[u+1] += ptr[u]
	}
	to, ids := make([]int32, 2*len(g.edges)), make([]int32, 2*len(g.edges))
	next := slices.Clone(ptr[:g.n])
	for i, e := range g.edges {
		to[next[e.U]], ids[next[e.U]] = int32(e.V), int32(i)
		to[next[e.V]], ids[next[e.V]] = int32(e.U), int32(i)
		next[e.U]++
		next[e.V]++
	}
	return &Incidence{ptr: ptr, to: to, ids: ids}
}

// Arcs returns u's neighbours and, position for position, the ids of the
// edges that join them. Both slices are shared and read-only.
func (in *Incidence) Arcs(u int) (to, ids []int32) {
	lo, hi := in.ptr[u], in.ptr[u+1]
	return in.to[lo:hi], in.ids[lo:hi]
}

// BFSOrder is Graph.BFSOrder over these lists: neighbours are visited in
// edge id order.
func (in *Incidence) BFSOrder(root int) (order []int, parent []int) {
	n := len(in.ptr) - 1
	parent = make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	// order is the queue; parent[v] != -1 marks v visited, so the root
	// is its own parent until the walk ends.
	order = append(make([]int, 0, n), root)
	parent[root] = root
	for head := 0; head < len(order); head++ {
		u := order[head]
		to, _ := in.Arcs(u)
		for _, v := range to {
			if parent[v] == -1 {
				parent[v] = u
				order = append(order, int(v))
			}
		}
	}
	parent[root] = -1
	return order, parent
}

// EdgeIndex builds a map from normalized (u,v) keys to edge ids. No
// product path calls it — they binary-search with FindEdge — only the
// benchmark harness's quality probe and package testkit.
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
// the Graph doc). The result inherits a cached "connected" verdict.
func (g *Graph) AddEdges(extra []Edge) (*Graph, error) {
	if len(extra) == 0 {
		return g.superset(g.edges), nil
	}
	norm, err := normalizeEdges(g.n, extra)
	if err != nil {
		return nil, err
	}
	merged := mergeDuplicates(norm) // duplicates among the extras themselves
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
	return g.superset(out), nil
}

// superset wraps es, a superset of g's edges, as a graph on g's vertex
// set; adding edges cannot disconnect a graph, so it inherits a cached
// "connected" verdict.
func (g *Graph) superset(es []Edge) *Graph {
	out := &Graph{n: g.n, edges: es}
	if g.conn.Load() == connYes {
		out.conn.Store(connYes)
	}
	return out
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
// mapping new→old. Duplicate or out-of-range vertices are rejected. An
// ascending vertex list relabels monotonically, so its edges arrive in
// (U,V) order and New does not sort them.
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
	kept := 0 // sized first: growing the list by append would allocate several times its size
	for _, e := range g.edges {
		if toNew[e.U] != 0 && toNew[e.V] != 0 {
			kept++
		}
	}
	edges := make([]Edge, 0, kept)
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
