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
