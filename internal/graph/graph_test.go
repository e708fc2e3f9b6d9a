package graph

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"graphspar/internal/testkit/matrix"
	"graphspar/internal/vecmath"
)

// mustNew is New for inputs valid by construction: it panics on error.
// (Other packages' tests use fixture.Graph, which imports this package.)
func mustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// path4 is the path graph 0-1-2-3 with unit weights.
func path4(t *testing.T) *Graph {
	t.Helper()
	g, err := New(4, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewNormalizesAndMerges(t *testing.T) {
	g, err := New(3, []Edge{{1, 0, 2}, {0, 1, 3}, {1, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2 (parallel edges merged)", g.M())
	}
	e := g.Edge(0)
	if e.U != 0 || e.V != 1 || e.W != 5 {
		t.Fatalf("merged edge = %+v, want {0 1 5}", e)
	}
}

func TestNewRejectsSelfLoop(t *testing.T) {
	_, err := New(2, []Edge{{1, 1, 1}})
	if !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("err = %v, want ErrSelfLoop", err)
	}
}

func TestNewRejectsOutOfRange(t *testing.T) {
	_, err := New(2, []Edge{{0, 5, 1}})
	if !errors.Is(err, ErrVertexRange) {
		t.Fatalf("err = %v, want ErrVertexRange", err)
	}
}

func TestNewRejectsBadWeights(t *testing.T) {
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := New(2, []Edge{{0, 1, w}}); !errors.Is(err, ErrBadWeight) {
			t.Fatalf("w=%v: err = %v, want ErrBadWeight", w, err)
		}
	}
}

func TestDegreeAndWeightedDegree(t *testing.T) {
	g, _ := New(3, []Edge{{0, 1, 2}, {0, 2, 3}})
	in := NewIncidence(g)
	to0, ids0 := in.Arcs(0)
	to1, _ := in.Arcs(1)
	if len(to0) != 2 || len(to1) != 1 || !slices.Equal(ids0, []int32{0, 1}) {
		t.Fatalf("arcs wrong: %v %v %v", to0, ids0, to1)
	}
	wd := g.WeightedDegrees()
	if wd[0] != 5 || wd[1] != 2 || wd[2] != 3 {
		t.Fatalf("WeightedDegrees = %v", wd)
	}
}

func TestLaplacianMatchesDefinition(t *testing.T) {
	g, _ := New(3, []Edge{{0, 1, 2}, {1, 2, 3}})
	l := g.Laplacian()
	want := [][]float64{
		{2, -2, 0},
		{-2, 5, -3},
		{0, -3, 3},
	}
	d := matrix.Dense(l)
	for i := range want {
		for j := range want[i] {
			if d[i][j] != want[i][j] {
				t.Fatalf("L[%d][%d] = %v, want %v", i, j, d[i][j], want[i][j])
			}
		}
	}
	if !l.IsSymmetric(0) {
		t.Fatal("Laplacian must be symmetric")
	}
}

func TestLapMulVecMatchesMatrix(t *testing.T) {
	g, _ := New(5, []Edge{{0, 1, 1}, {1, 2, 2}, {2, 3, 0.5}, {3, 4, 4}, {0, 4, 1.5}})
	l := g.Laplacian()
	x := []float64{1, -2, 3, 0.5, 2}
	y1 := make([]float64, 5)
	y2 := make([]float64, 5)
	g.LapMulVec(y1, x)
	l.MulVec(y2, x)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("LapMulVec mismatch at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
}

func TestLapQuadFormEdgeSum(t *testing.T) {
	g := path4(t)
	x := []float64{0, 1, 3, 6}
	// (0-1)² + (1-3)² + (3-6)² = 1 + 4 + 9 = 14
	if got := g.LapQuadForm(x); got != 14 {
		t.Fatalf("LapQuadForm = %v, want 14", got)
	}
}

func TestLaplacianNullSpace(t *testing.T) {
	g := path4(t)
	ones := []float64{1, 1, 1, 1}
	y := make([]float64, 4)
	g.LapMulVec(y, ones)
	for i, v := range y {
		if v != 0 {
			t.Fatalf("L·1 != 0 at %d: %v", i, v)
		}
	}
}

func TestComponents(t *testing.T) {
	g, _ := New(5, []Edge{{0, 1, 1}, {2, 3, 1}})
	labels, c := g.Components()
	if c != 3 {
		t.Fatalf("components = %d, want 3", c)
	}
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[0] == labels[2] || labels[4] == labels[0] {
		t.Fatalf("bad labels %v", labels)
	}
}

func TestIsConnected(t *testing.T) {
	if !path4(t).IsConnected() {
		t.Fatal("path should be connected")
	}
	g, _ := New(3, []Edge{{0, 1, 1}})
	if g.IsConnected() {
		t.Fatal("graph with isolated vertex is not connected")
	}
	empty, _ := New(0, nil)
	if !empty.IsConnected() {
		t.Fatal("empty graph is trivially connected")
	}
}

func TestRequireConnected(t *testing.T) {
	for _, c := range []struct {
		g    *Graph
		want error
	}{
		{mustNew(3, []Edge{{0, 1, 1}}), ErrDisconnected},
		{mustNew(0, nil), ErrEmpty},
		{mustNew(1, nil), nil},
		{path4(t), nil},
		{mustNew(6, []Edge{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {3, 4, 1}, {4, 5, 1}, {3, 5, 1}}), ErrDisconnected},
	} {
		if err := c.g.RequireConnected(); !errors.Is(err, c.want) || (err == nil) != (c.want == nil) {
			t.Errorf("%v: err = %v, want %v", c.g, err, c.want)
		}
	}
}

func TestSubgraphEdges(t *testing.T) {
	g := path4(t)
	sub, err := g.SubgraphEdges([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.M() != 2 || sub.N() != 4 {
		t.Fatalf("subgraph n=%d m=%d", sub.N(), sub.M())
	}
	if sub.IsConnected() {
		t.Fatal("subgraph {0-1, 2-3} must be disconnected")
	}
	if _, err := g.SubgraphEdges([]int{0, 0}); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("expected ErrDuplicateEdge, got %v", err)
	}
	if _, err := g.SubgraphEdges([]int{99}); err == nil {
		t.Fatal("expected range error")
	}
}

// The flat seen/renumbering arrays must report what the maps did: the
// first offending entry in input order decides the error.
func TestSubgraphErrorOrder(t *testing.T) {
	g := path4(t)
	for _, c := range []struct {
		ids  []int
		want error // nil = the untyped range error
		msg  string
	}{
		{[]int{1, 1, 99}, ErrDuplicateEdge, "id 1"},
		{[]int{1, 99, 1}, nil, "edge id 99 out of range"},
		{[]int{-1, 0, 0}, nil, "edge id -1 out of range"},
		{[]int{3}, nil, "edge id 3 out of range"},
	} {
		_, err := g.SubgraphEdges(c.ids)
		if err == nil || !strings.Contains(err.Error(), c.msg) || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("SubgraphEdges(%v) = %v, want %q", c.ids, err, c.msg)
		}
	}
	for _, c := range []struct {
		verts []int
		want  error // nil = the untyped duplicate error
		msg   string
	}{
		{[]int{2, 2, 9}, nil, "duplicate vertex 2"},
		{[]int{2, 9, 2}, ErrVertexRange, "vertex 9"},
		{[]int{-1, 2, 2}, ErrVertexRange, "vertex -1"},
		{[]int{0, 4}, ErrVertexRange, "vertex 4"},
		{[]int{0, 3, 0}, nil, "duplicate vertex 0"}, // new id 0 must still count as taken
	} {
		_, _, err := g.InducedSubgraph(c.verts)
		if err == nil || !strings.Contains(err.Error(), c.msg) || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("InducedSubgraph(%v) = %v, want %q", c.verts, err, c.msg)
		}
	}
}

func TestInducedSubgraphRenumbers(t *testing.T) {
	g := path4(t) // 0-1-2-3
	sub, mapping, err := g.InducedSubgraph([]int{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mapping, []int{3, 1, 2}) {
		t.Fatalf("mapping = %v", mapping)
	}
	// 1-2 → (1,2) and 2-3 → (2,0), normalized and sorted by New.
	want := []Edge{{0, 2, g.Edge(2).W}, {1, 2, g.Edge(1).W}}
	if !reflect.DeepEqual(sub.Edges(), want) {
		t.Fatalf("edges = %v, want %v", sub.Edges(), want)
	}
	if empty, _, err := g.InducedSubgraph(nil); err != nil || empty.N() != 0 {
		t.Fatalf("empty induced set: %v, %v", empty, err)
	}
}

func TestBFSOrder(t *testing.T) {
	g := path4(t)
	order, parent := g.BFSOrder(0)
	if len(order) != 4 || order[0] != 0 {
		t.Fatalf("order = %v", order)
	}
	if parent[0] != -1 || parent[1] != 0 || parent[2] != 1 || parent[3] != 2 {
		t.Fatalf("parent = %v", parent)
	}
}

func TestBFSOrderUnreachable(t *testing.T) {
	g, _ := New(3, []Edge{{0, 1, 1}})
	order, parent := g.BFSOrder(0)
	if len(order) != 2 {
		t.Fatalf("order should only cover reachable vertices, got %v", order)
	}
	if parent[2] != -1 {
		t.Fatalf("unreachable parent = %d, want -1", parent[2])
	}
}

// TestBFSOrderMatchesIndexWalk checks the incidence-list BFS against a
// BFS over neighbour lists built from Edges() on random graphs, from every
// root, so the reference shares no code with Incidence.
func TestBFSOrderMatchesIndexWalk(t *testing.T) {
	rng := vecmath.NewRNG(29)
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		var es []Edge
		for k := rng.Intn(3 * n); k > 0; k-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				es = append(es, Edge{u, v, 1})
			}
		}
		g := mustNew(n, es)
		nbrs := make([][]int, n) // in edge id order, as Incidence lists them
		for _, e := range g.Edges() {
			nbrs[e.U] = append(nbrs[e.U], e.V)
			nbrs[e.V] = append(nbrs[e.V], e.U)
		}
		for root := 0; root < n; root++ {
			order, parent := g.BFSOrder(root)
			wantParent := make([]int, n)
			for i := range wantParent {
				wantParent[i] = -1
			}
			want := []int{root}
			for head := 0; head < len(want); head++ {
				u := want[head]
				for _, v := range nbrs[u] {
					if v != root && wantParent[v] == -1 {
						wantParent[v] = u
						want = append(want, v)
					}
				}
			}
			if !reflect.DeepEqual(order, want) || !reflect.DeepEqual(parent, wantParent) {
				t.Fatalf("trial %d root %d: BFSOrder = %v %v, reference walk %v %v", trial, root, order, parent, want, wantParent)
			}
		}
	}
}

func TestContentHashCanonical(t *testing.T) {
	// Same structure supplied in different edge orders/orientations must
	// hash identically (New normalizes).
	a := mustNew(3, []Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}})
	b := mustNew(3, []Edge{{U: 2, V: 1, W: 3}, {U: 1, V: 0, W: 2}})
	if a.ContentHash() != b.ContentHash() {
		t.Error("hash differs for structurally equal graphs")
	}
	c := mustNew(3, []Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 4}})
	if a.ContentHash() == c.ContentHash() {
		t.Error("hash collides across different weights")
	}
	d := mustNew(4, []Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}})
	if a.ContentHash() == d.ContentHash() {
		t.Error("hash collides across different vertex counts")
	}
	// The encoding itself is pinned: n, then U, V and the weight's bits
	// per edge, each 8 bytes little-endian. The 592-edge graph spans
	// several of ContentHash's write chunks.
	var es []Edge
	for i := 0; i+1 < 300; i++ {
		es = append(es, Edge{U: i, V: i + 1, W: 1 + float64(i)/8})
		if i+7 < 300 {
			es = append(es, Edge{U: i + 7, V: i, W: 0.25})
		}
	}
	for _, c := range []struct {
		g    *Graph
		want string
	}{
		{a, "0abc93fb569ce6c3dae49a03e5d9883dc6cbe2afc860b8d6e8ce3b1939ea2bff"},
		{mustNew(300, es), "14e176f6fe0ac2cdbef8c3f505336c9f2f4c8a9e660963e262fb4e807f60743b"},
	} {
		if got := c.g.ContentHash(); got != c.want {
			t.Errorf("%v: ContentHash = %s, want %s", c.g, got, c.want)
		}
	}
}

func TestHasEdgeAndIndex(t *testing.T) {
	g := path4(t)
	if !g.HasEdge(1, 0) || g.HasEdge(0, 2) || g.HasEdge(1, 1) {
		t.Fatal("HasEdge wrong")
	}
	idx := g.EdgeIndex()
	if idx[[2]int{1, 2}] != 1 {
		t.Fatalf("EdgeIndex = %v", idx)
	}
}

func TestAddEdges(t *testing.T) {
	g := path4(t)
	g2, err := g.AddEdges([]Edge{{0, 3, 2}, {0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != 4 {
		t.Fatalf("M = %d, want 4", g2.M())
	}
	// Original untouched.
	if g.M() != 3 {
		t.Fatal("AddEdges must not mutate receiver")
	}
	// Parallel edge merged.
	if g2.Edge(0).W != 2 {
		t.Fatalf("merged weight = %v, want 2", g2.Edge(0).W)
	}
}

// TestFindEdgeMatchesIndex checks the binary-search lookup against the
// map index on every vertex pair of a random graph, both orientations.
func TestFindEdgeMatchesIndex(t *testing.T) {
	rng := vecmath.NewRNG(17)
	const n = 23
	var es []Edge
	for i := 0; i < 90; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			es = append(es, Edge{u, v, 1 + rng.Float64()})
		}
	}
	g := mustNew(n, es)
	idx := g.EdgeIndex()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			a, b := min(u, v), max(u, v)
			want, in := idx[[2]int{a, b}]
			got, ok := FindEdge(g, u, v)
			if ok != in || (ok && got != want) || g.HasEdge(u, v) != in {
				t.Fatalf("FindEdge(%d,%d) = %d,%v; index says %d,%v", u, v, got, ok, want, in)
			}
		}
	}
	if _, ok := FindEdge(mustNew(3, nil), 0, 1); ok {
		t.Fatal("FindEdge found an edge in an empty graph")
	}
}

// TestEditMatchesNew is the table for the shared edit walk: whatever the
// mix of deletes, reweights and inserts, Edit must equal New on the edited
// list, leave the receiver alone, and emit exactly the moved pairs' signed
// weight changes in (U,V) order.
func TestEditMatchesNew(t *testing.T) {
	base := []Edge{{0, 1, 1}, {0, 4, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}}
	cases := []struct {
		name   string
		edits  []Edge
		want   []Edge // the edited list, any order
		deltas []Edge
	}{
		{"empty", nil, base, nil},
		{"delete", []Edge{{2, 3, 0}, {0, 1, 0}},
			[]Edge{{0, 4, 2}, {1, 2, 3}, {3, 4, 5}},
			[]Edge{{0, 1, -1}, {2, 3, -4}}},
		{"reweight", []Edge{{3, 4, 0.5}, {4, 0, 7}},
			[]Edge{{0, 1, 1}, {0, 4, 7}, {1, 2, 3}, {2, 3, 4}, {3, 4, 0.5}},
			[]Edge{{0, 4, 5}, {3, 4, -4.5}}},
		{"insert", []Edge{{2, 4, 9}, {0, 2, 8}, {1, 4, 6}},
			append([]Edge{{2, 4, 9}, {0, 2, 8}, {1, 4, 6}}, base...),
			[]Edge{{0, 2, 8}, {1, 4, 6}, {2, 4, 9}}},
		{"mixed", []Edge{{3, 4, 0}, {0, 3, 2.5}, {2, 1, 1}, {0, 1, 1}},
			[]Edge{{0, 1, 1}, {0, 3, 2.5}, {0, 4, 2}, {1, 2, 1}, {2, 3, 4}},
			[]Edge{{0, 3, 2.5}, {1, 2, -2}, {3, 4, -5}}}, // (0,1) set to the weight it has: no delta
		{"delete absent", []Edge{{1, 3, 0}}, base, nil},
		{"last edit of a pair wins", []Edge{{1, 3, 2}, {0, 1, 0}, {3, 1, 4}, {1, 0, 6}},
			[]Edge{{0, 1, 6}, {0, 4, 2}, {1, 2, 3}, {1, 3, 4}, {2, 3, 4}, {3, 4, 5}},
			[]Edge{{0, 1, 5}, {1, 3, 4}}},
		{"first and last", []Edge{{0, 1, 0}, {3, 4, 0}, {0, 2, 1}},
			[]Edge{{0, 2, 1}, {0, 4, 2}, {1, 2, 3}, {2, 3, 4}},
			[]Edge{{0, 1, -1}, {0, 2, 1}, {3, 4, -5}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := mustNew(5, base)
			got, deltas, err := Edit(g, c.edits)
			if err != nil {
				t.Fatal(err)
			}
			if want := mustNew(5, c.want); !reflect.DeepEqual(got.Edges(), want.Edges()) {
				t.Fatalf("edited list = %v, New gives %v", got.Edges(), want.Edges())
			}
			if !reflect.DeepEqual(deltas, c.deltas) {
				t.Fatalf("deltas = %v, want %v", deltas, c.deltas)
			}
			if !reflect.DeepEqual(g.Edges(), mustNew(5, base).Edges()) {
				t.Fatal("Edit must not mutate the receiver")
			}
		})
	}
	g := mustNew(5, base)
	for _, bad := range []struct {
		e    Edge
		want error
	}{
		{Edge{1, 1, 1}, ErrSelfLoop}, {Edge{0, 5, 0}, ErrVertexRange},
		{Edge{0, 1, -1}, ErrBadWeight}, {Edge{0, 1, math.NaN()}, ErrBadWeight}, {Edge{0, 1, math.Inf(1)}, ErrBadWeight},
	} {
		if _, _, err := Edit(g, []Edge{{2, 3, 1}, bad.e}); !errors.Is(err, bad.want) {
			t.Fatalf("Edit(%v) err = %v, want %v", bad.e, err, bad.want)
		}
	}
}

// TestEditRandomMatchesNew drives the walk with random edit lists against
// the obvious oracle: apply the edits one by one to a weight map, hand the
// result to New, and difference the map before and after for the deltas.
func TestEditRandomMatchesNew(t *testing.T) {
	rng := vecmath.NewRNG(5)
	const n = 12
	g := mustNew(n, nil)
	for round := 0; round < 200; round++ {
		before, after := make(map[[2]int]float64), make(map[[2]int]float64)
		for _, e := range g.Edges() {
			before[[2]int{e.U, e.V}], after[[2]int{e.U, e.V}] = e.W, e.W
		}
		edits := make([]Edge, rng.Intn(9))
		for i := range edits {
			u, v := rng.Intn(n), rng.Intn(n-1)
			if v >= u {
				v++
			}
			edits[i] = Edge{u, v, float64(rng.Intn(4))} // 0 deletes
			after[[2]int{min(u, v), max(u, v)}] = edits[i].W
		}
		var list []Edge
		moved := 0
		for k, w := range after {
			if w > 0 {
				list = append(list, Edge{k[0], k[1], w})
			}
			if w != before[k] {
				moved++
			}
		}
		got, deltas, err := Edit(g, edits)
		if err != nil {
			t.Fatal(err)
		}
		if got.ContentHash() != mustNew(n, list).ContentHash() {
			t.Fatalf("round %d: edited list = %v, New gives %v", round, got.Edges(), mustNew(n, list).Edges())
		}
		if len(deltas) != moved {
			t.Fatalf("round %d: %d deltas for %d moved pairs: %v", round, len(deltas), moved, deltas)
		}
		for i, d := range deltas {
			k := [2]int{d.U, d.V}
			if (i > 0 && !edgeLess(deltas[i-1], d)) || d.W == 0 || d.W != after[k]-before[k] {
				t.Fatalf("round %d: delta %d of %v is out of order or not %v", round, i, deltas, after[k]-before[k])
			}
		}
		g = got
	}
}

func TestTotalWeight(t *testing.T) {
	g, _ := New(3, []Edge{{0, 1, 2}, {1, 2, 3.5}})
	if g.TotalWeight() != 5.5 {
		t.Fatalf("TotalWeight = %v", g.TotalWeight())
	}
}

// Property: Laplacian quadratic form is nonnegative (PSD) and zero only
// for constant x on connected graphs.
func TestQuickLaplacianPSD(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vecmath.NewRNG(seed)
		n := 2 + rng.Intn(20)
		// Random connected graph: path + random extra edges.
		var es []Edge
		for i := 0; i+1 < n; i++ {
			es = append(es, Edge{i, i + 1, 0.1 + rng.Float64()})
		}
		for k := 0; k < n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				es = append(es, Edge{u, v, 0.1 + rng.Float64()})
			}
		}
		g, err := New(n, es)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		rng.FillNormal(x)
		if g.LapQuadForm(x) < -1e-12 {
			return false
		}
		c := make([]float64, n)
		for i := range c {
			c[i] = 3.7
		}
		return math.Abs(g.LapQuadForm(c)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: row sums of the Laplacian are zero.
func TestQuickLaplacianRowSums(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vecmath.NewRNG(seed)
		n := 2 + rng.Intn(15)
		var es []Edge
		for k := 0; k < 2*n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				es = append(es, Edge{u, v, 0.5 + rng.Float64()})
			}
		}
		g, err := New(n, es)
		if err != nil {
			return false
		}
		l := g.Laplacian()
		d := matrix.Dense(l)
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += d[i][j]
			}
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// newAlwaysSort is New without the sorted-input fast path: normalize,
// sort.Slice, merge adjacent duplicates in sorted order. It is the
// reference New's bytes must match on every input.
func newAlwaysSort(t *testing.T, n int, edges []Edge) []Edge {
	t.Helper()
	norm := make([]Edge, len(edges))
	for i, e := range edges {
		e, err := normalizeEdge(n, e, false)
		if err != nil {
			t.Fatal(err)
		}
		norm[i] = e
	}
	sort.Slice(norm, func(i, j int) bool { return edgeLess(norm[i], norm[j]) })
	var out []Edge
	for _, e := range norm {
		if k := len(out); k > 0 && out[k-1].U == e.U && out[k-1].V == e.V {
			out[k-1].W += e.W
		} else {
			out = append(out, e)
		}
	}
	return out
}

// sameBits reports whether two edge lists agree pair for pair and weight
// bit for bit.
func sameBits(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].U != b[i].U || a[i].V != b[i].V || math.Float64bits(a[i].W) != math.Float64bits(b[i].W) {
			return false
		}
	}
	return true
}

// TestNewSortedFastPathMatchesReference feeds New random edge lists —
// either orientation, duplicated pairs (some three or more times, with
// weights whose sum depends on the order of addition), pre-sorted, sorted
// with duplicates, and shuffled — and requires the always-sort reference's
// edges bit for bit. SubgraphEdges, handed the ids of a random subset in
// shuffled order, and InducedSubgraph, handed an ascending vertex subset,
// must equal the reference on the edges they keep.
func TestNewSortedFastPathMatchesReference(t *testing.T) {
	rng := vecmath.NewRNG(41)
	flip := func(e Edge) Edge {
		if rng.Intn(2) == 0 {
			e.U, e.V = e.V, e.U
		}
		return e
	}
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(30)
		var es []Edge
		for i := rng.Intn(4 * n); i > 0; i-- {
			u, v := rng.Intn(n), rng.Intn(n-1)
			if v >= u {
				v++
			}
			e := Edge{u, v, 0.1 + 1e3*rng.Float64()}
			copies := 1
			if rng.Intn(4) == 0 {
				copies = 2 + rng.Intn(3)
			}
			for ; copies > 0; copies-- {
				es = append(es, flip(e))
				e.W = 0.1 + rng.Float64()/3
			}
		}
		switch trial % 4 {
		case 0: // shuffled as generated
		case 1: // strictly increasing: the fast path
			es = newAlwaysSort(t, n, es)
			for i := range es {
				es[i] = flip(es[i])
			}
		case 2: // sorted, duplicates adjacent
			sort.SliceStable(es, func(i, j int) bool {
				a, _ := normalizeEdge(n, es[i], false)
				b, _ := normalizeEdge(n, es[j], false)
				return edgeLess(a, b)
			})
		case 3: // reverse sorted
			es = newAlwaysSort(t, n, es)
			slices.Reverse(es)
		}
		in := slices.Clone(es)
		g, err := New(n, es)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(es, in) {
			t.Fatalf("trial %d: New modified its input", trial)
		}
		want := newAlwaysSort(t, n, es)
		if !sameBits(g.Edges(), want) {
			t.Fatalf("trial %d: New = %v, reference %v", trial, g.Edges(), want)
		}

		var ids []int
		for id := range g.M() {
			if rng.Intn(3) > 0 {
				ids = append(ids, id)
			}
		}
		perm := matrix.Perm(rng, len(ids))
		shuffled := make([]int, len(ids))
		kept := make([]Edge, len(ids))
		for i, p := range perm {
			shuffled[i] = ids[p]
			kept[i] = g.Edge(ids[p])
		}
		sub, err := g.SubgraphEdges(shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if want := newAlwaysSort(t, n, kept); sub.N() != n || !sameBits(sub.Edges(), want) {
			t.Fatalf("trial %d: SubgraphEdges = %v, reference %v", trial, sub.Edges(), want)
		}

		var verts []int
		toNew := make(map[int]int)
		for v := range n {
			if rng.Intn(4) > 0 {
				toNew[v] = len(verts)
				verts = append(verts, v)
			}
		}
		var relabelled []Edge
		for _, e := range g.Edges() {
			u, uok := toNew[e.U]
			v, vok := toNew[e.V]
			if uok && vok {
				relabelled = append(relabelled, Edge{u, v, e.W})
			}
		}
		ind, _, err := g.InducedSubgraph(verts)
		if err != nil {
			t.Fatal(err)
		}
		if want := newAlwaysSort(t, len(verts), relabelled); !sameBits(ind.Edges(), want) {
			t.Fatalf("trial %d: InducedSubgraph = %v, reference %v", trial, ind.Edges(), want)
		}
	}
}

// TestIsConnectedConcurrent shares one graph between goroutines that all
// ask for its connectivity at once; run under -race it checks the cached
// verdict is published safely, and every caller must get the same answer.
func TestIsConnectedConcurrent(t *testing.T) {
	for _, c := range []struct {
		g    *Graph
		want error
	}{
		{path4(t), nil},
		{mustNew(5, []Edge{{0, 1, 1}, {2, 3, 1}, {3, 4, 1}}), ErrDisconnected},
	} {
		var wg sync.WaitGroup
		errs := make([]error, 16)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if i%2 == 0 {
					if c.g.IsConnected() != (c.want == nil) {
						errs[i] = errors.New("IsConnected disagrees")
					}
					return
				}
				if err := c.g.RequireConnected(); !errors.Is(err, c.want) {
					errs[i] = fmt.Errorf("RequireConnected = %v, want %v", err, c.want)
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConnectivityInheritance pins which derived graphs reuse a cached
// verdict: AddEdges keeps the vertex set and only adds edges, so it
// inherits "connected"; Edit can delete, SubgraphEdges drops edges and
// InducedSubgraph drops vertices, so none of them inherits anything, even
// when the result happens to be connected.
func TestConnectivityInheritance(t *testing.T) {
	g := mustNew(5, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {0, 4, 1}})
	state := func(h *Graph) int32 { return h.conn.Load() }
	if more, _ := g.AddEdges([]Edge{{0, 2, 1}}); state(more) != connUnknown {
		t.Fatal("AddEdges inherited a verdict its receiver never computed")
	}
	if !g.IsConnected() || state(g) != connYes {
		t.Fatal("IsConnected did not cache its verdict")
	}
	for _, extra := range [][]Edge{nil, {{0, 2, 1}}, {{1, 3, 2}, {0, 1, 1}}} {
		more, err := g.AddEdges(extra)
		if err != nil {
			t.Fatal(err)
		}
		if state(more) != connYes {
			t.Fatalf("AddEdges(%v) did not inherit \"connected\"", extra)
		}
	}
	edited, _, err := Edit(g, []Edge{{0, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := g.SubgraphEdges([]int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	ind, _, err := g.InducedSubgraph([]int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range []*Graph{edited, sub, ind} {
		if state(h) != connUnknown {
			t.Errorf("derived graph %d of Edit, SubgraphEdges, InducedSubgraph inherited a connectivity verdict", i)
		}
	}
	cut, err := g.SubgraphEdges([]int{2, 0}) // (1,2) and (0,1): 3 and 4 are cut off
	if err != nil {
		t.Fatal(err)
	}
	if err := cut.RequireConnected(); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("disconnected edge subset: RequireConnected = %v", err)
	}

	split := mustNew(4, []Edge{{0, 1, 1}, {2, 3, 1}})
	if split.IsConnected() || state(split) != connNo {
		t.Fatal("IsConnected did not cache \"not connected\"")
	}
	joined, err := split.AddEdges([]Edge{{1, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if state(joined) != connUnknown || !joined.IsConnected() {
		t.Fatal("AddEdges must not inherit \"not connected\": the extras can join components")
	}
}

// TestAddEdgesChildSkipsPass shows that an AddEdges child of a connected
// graph answers from the inherited verdict: deriving it and asking costs
// exactly the allocations of deriving it, while a child of a graph whose
// verdict is unknown pays for the union-find pass on top.
func TestAddEdgesChildSkipsPass(t *testing.T) {
	edges := benchGrid(8, 8)
	derive := func(g *Graph, ask bool) float64 {
		return testing.AllocsPerRun(20, func() {
			child, err := g.AddEdges([]Edge{{0, 63, 1}})
			if err != nil {
				t.Fatal(err)
			}
			if ask && !child.IsConnected() {
				t.Fatal("child of a connected grid reads disconnected")
			}
		})
	}
	known := mustNew(64, edges)
	if !known.IsConnected() {
		t.Fatal("grid reads disconnected")
	}
	if bare, asked := derive(known, false), derive(known, true); asked != bare {
		t.Errorf("child of a connected graph: %v allocs with the query, %v without; the pass ran", asked, bare)
	}
	unknown := mustNew(64, edges)
	if bare, asked := derive(unknown, false), derive(unknown, true); asked <= bare {
		t.Errorf("child of an unqueried graph: %v allocs with the query, %v without; the measure cannot see the pass", asked, bare)
	}
}

// benchGrid returns the edge list of a rows×cols grid in (U,V) order with
// uniform random weights — the size of the sharded mesh workload at
// 320×320.
func benchGrid(rows, cols int) []Edge {
	rng := vecmath.NewRNG(1)
	var es []Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				es = append(es, Edge{v, v + 1, 0.1 + rng.Float64()})
			}
			if r+1 < rows {
				es = append(es, Edge{v, v + cols, 0.1 + rng.Float64()})
			}
		}
	}
	return es
}

// BenchmarkGraphNew builds a 320×320 grid from its edge list already in
// (U,V) order (the O(m) path every derived graph takes) and shuffled (the
// O(m log m) sort).
func BenchmarkGraphNew(b *testing.B) {
	const side = 320
	sorted := benchGrid(side, side)
	shuffled := make([]Edge, len(sorted))
	for i, p := range matrix.Perm(vecmath.NewRNG(2), len(sorted)) {
		shuffled[i] = sorted[p]
	}
	for _, c := range []struct {
		name  string
		edges []Edge
	}{{"sorted", sorted}, {"shuffled", shuffled}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := New(side*side, c.edges); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSubgraphEdges keeps a shuffled 5/8 of a 320×320 grid's edge
// ids — about the share the sharded plan's stitch keeps on that mesh.
func BenchmarkSubgraphEdges(b *testing.B) {
	g := mustNew(320*320, benchGrid(320, 320))
	rng := vecmath.NewRNG(3)
	var ids []int
	for _, id := range matrix.Perm(rng, g.M()) {
		if rng.Intn(8) < 5 {
			ids = append(ids, id)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := g.SubgraphEdges(ids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIsConnected times the first connectivity query on a fresh
// 320×320 grid (each iteration wraps the same edge list in a new Graph,
// so nothing is cached): the union-find pass IsConnected runs, and for
// comparison Components, which walks the incidence lists the query used
// to build.
func BenchmarkIsConnected(b *testing.B) {
	g := mustNew(320*320, benchGrid(320, 320))
	b.Run("unionfind", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if !(&Graph{n: g.n, edges: g.edges}).IsConnected() {
				b.Fatal("grid reads disconnected")
			}
		}
	})
	b.Run("index+components", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, count := (&Graph{n: g.n, edges: g.edges}).Components(); count != 1 {
				b.Fatal("grid reads disconnected")
			}
		}
	})
}
