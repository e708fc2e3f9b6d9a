package graph

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"graphspar/internal/vecmath"
)

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
	if g.Degree(0) != 2 || g.Degree(1) != 1 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(1))
	}
	if g.WeightedDegree(0) != 5 {
		t.Fatalf("WeightedDegree(0) = %v, want 5", g.WeightedDegree(0))
	}
	wd := g.WeightedDegrees()
	if wd[0] != 5 || wd[1] != 2 || wd[2] != 3 {
		t.Fatalf("WeightedDegrees = %v", wd)
	}
}

func TestNeighborsEarlyStop(t *testing.T) {
	g, _ := New(4, []Edge{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}})
	count := 0
	g.Neighbors(0, func(v int, w float64, id int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop failed, visited %d", count)
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
	d := l.Dense()
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
	g, _ := New(3, []Edge{{0, 1, 1}})
	if err := g.RequireConnected(); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("err = %v, want ErrDisconnected", err)
	}
	empty, _ := New(0, nil)
	if err := empty.RequireConnected(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
	if err := path4(t).RequireConnected(); err != nil {
		t.Fatalf("unexpected err %v", err)
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
	g := MustNew(n, es)
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
	if _, ok := FindEdge(MustNew(3, nil), 0, 1); ok {
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
			g := MustNew(5, base)
			got, deltas, err := Edit(g, c.edits)
			if err != nil {
				t.Fatal(err)
			}
			if want := MustNew(5, c.want); !reflect.DeepEqual(got.Edges(), want.Edges()) {
				t.Fatalf("edited list = %v, New gives %v", got.Edges(), want.Edges())
			}
			if !reflect.DeepEqual(deltas, c.deltas) {
				t.Fatalf("deltas = %v, want %v", deltas, c.deltas)
			}
			if !reflect.DeepEqual(g.Edges(), MustNew(5, base).Edges()) {
				t.Fatal("Edit must not mutate the receiver")
			}
		})
	}
	g := MustNew(5, base)
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
	g := MustNew(n, nil)
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
		if got.ContentHash() != MustNew(n, list).ContentHash() {
			t.Fatalf("round %d: edited list = %v, New gives %v", round, got.Edges(), MustNew(n, list).Edges())
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
		d := l.Dense()
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
