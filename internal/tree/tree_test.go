package tree

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"graphspar/internal/graph"
	"graphspar/internal/vecmath"
)

// pathTree builds the path 0-1-2-3 with weights 1, 2, 4 rooted at 0.
func pathTree(t *testing.T) *Tree {
	t.Helper()
	tr, err := Build(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 4}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// randomTree generates a random spanning tree on n vertices by attaching
// each vertex i>0 to a random earlier vertex.
func randomTree(n int, rng *vecmath.RNG) []graph.Edge {
	edges := make([]graph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		edges = append(edges, graph.Edge{U: u, V: v, W: 0.1 + 3*rng.Float64()})
	}
	return edges
}

func TestBuildValidates(t *testing.T) {
	if _, err := Build(3, []graph.Edge{{U: 0, V: 1, W: 1}}, 0); !errors.Is(err, ErrNotTree) {
		t.Fatalf("too few edges: %v", err)
	}
	if _, err := Build(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 1, W: 1}}, 0); !errors.Is(err, ErrNotTree) {
		t.Fatalf("duplicate edge: %v", err)
	}
	// Cycle of 3 with an isolated vertex: right count, not spanning.
	if _, err := Build(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1}}, 0); !errors.Is(err, ErrNotTree) {
		t.Fatalf("cycle: %v", err)
	}
	if _, err := Build(2, []graph.Edge{{U: 0, V: 1, W: 1}}, 5); err == nil {
		t.Fatal("bad root should fail")
	}
}

func TestParentsAndDepths(t *testing.T) {
	tr := pathTree(t)
	if tr.Root() != 0 || tr.Parent(0) != -1 {
		t.Fatal("root bookkeeping wrong")
	}
	if tr.Parent(3) != 2 {
		t.Fatalf("parent(3)=%d", tr.Parent(3))
	}
	if tr.Depth(3) != 3 || tr.Depth(0) != 0 {
		t.Fatalf("depths wrong: %d %d", tr.Depth(3), tr.Depth(0))
	}
}

func TestLCAPath(t *testing.T) {
	tr := pathTree(t)
	if got := tr.LCA(0, 3); got != 0 {
		t.Fatalf("LCA(0,3) = %d, want 0", got)
	}
	if got := tr.LCA(2, 3); got != 2 {
		t.Fatalf("LCA(2,3) = %d, want 2", got)
	}
	if got := tr.LCA(1, 1); got != 1 {
		t.Fatalf("LCA(1,1) = %d, want 1", got)
	}
}

func TestLCAStar(t *testing.T) {
	tr, err := Build(5, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}, {U: 0, V: 3, W: 1}, {U: 0, V: 4, W: 1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for a := 1; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			if got := tr.LCA(a, b); got != 0 {
				t.Fatalf("LCA(%d,%d) = %d, want 0", a, b, got)
			}
		}
	}
}

func TestPathResistance(t *testing.T) {
	tr := pathTree(t)
	// R(0,3) = 1/1 + 1/2 + 1/4 = 1.75
	if got := tr.PathResistance(0, 3); math.Abs(got-1.75) > 1e-15 {
		t.Fatalf("R(0,3) = %v, want 1.75", got)
	}
	if got := tr.PathResistance(2, 2); got != 0 {
		t.Fatalf("R(v,v) = %v, want 0", got)
	}
	if got := tr.PathResistance(1, 3); math.Abs(got-0.75) > 1e-15 {
		t.Fatalf("R(1,3) = %v, want 0.75", got)
	}
}

func TestStretchTreeEdgeIsOne(t *testing.T) {
	tr := pathTree(t)
	for _, e := range tr.Edges() {
		if s := tr.Stretch(e); math.Abs(s-1) > 1e-12 {
			t.Fatalf("tree edge stretch = %v, want 1", s)
		}
	}
}

func TestStretchOffTreeEdge(t *testing.T) {
	tr := pathTree(t)
	// Off-tree edge (0,3) with weight 2: stretch = 2 * 1.75 = 3.5.
	if s := tr.Stretch(graph.Edge{U: 0, V: 3, W: 2}); math.Abs(s-3.5) > 1e-12 {
		t.Fatalf("stretch = %v, want 3.5", s)
	}
}

func TestTotalStretchIdentity(t *testing.T) {
	// For G = tree + one off-tree edge, total stretch = (n-1) + st(off).
	g, err := graph.New(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 4}, {U: 0, V: 3, W: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := pathTree(t)
	got := tr.TotalStretch(g)
	want := 3 + 3.5
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("TotalStretch = %v, want %v", got, want)
	}
}

func TestSolveExactOnPath(t *testing.T) {
	tr := pathTree(t)
	g := tr.Graph()
	b := []float64{1, 0, 0, -1} // unit current in at 0, out at 3
	x := make([]float64, 4)
	tr.Solve(x, b)
	// Check L x = b (projected; b already sums to zero).
	y := make([]float64, 4)
	g.LapMulVec(y, x)
	for i := range b {
		if math.Abs(y[i]-b[i]) > 1e-12 {
			t.Fatalf("L x != b at %d: %v vs %v", i, y[i], b[i])
		}
	}
	// Potential drop 0→3 should equal R(0,3)·I = 1.75.
	if d := x[0] - x[3]; math.Abs(d-1.75) > 1e-12 {
		t.Fatalf("potential drop = %v, want 1.75", d)
	}
	// Zero mean.
	if m := vecmath.Mean(x); math.Abs(m) > 1e-12 {
		t.Fatalf("solution mean = %v, want 0", m)
	}
}

func TestSolveProjectsInconsistentRHS(t *testing.T) {
	tr := pathTree(t)
	g := tr.Graph()
	b := []float64{2, 1, 1, 0} // sum = 4, not in range(L)
	x := make([]float64, 4)
	tr.Solve(x, b)
	y := make([]float64, 4)
	g.LapMulVec(y, x)
	// Must solve for the projected RHS b - mean.
	for i := range b {
		want := b[i] - 1
		if math.Abs(y[i]-want) > 1e-12 {
			t.Fatalf("projected solve wrong at %d: %v vs %v", i, y[i], want)
		}
	}
}

func TestFromGraph(t *testing.T) {
	g, err := graph.New(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 0, V: 3, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := FromGraph(g, []int{0, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != 4 || len(tr.Edges()) != 3 {
		t.Fatalf("FromGraph shape wrong")
	}
	if _, err := FromGraph(g, []int{0, 1, 9}, 0); err == nil {
		t.Fatal("bad edge id should fail")
	}
}

// Property: Solve inverts the tree Laplacian on mean-free vectors for
// random trees.
func TestQuickSolveInverts(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vecmath.NewRNG(seed)
		n := 2 + rng.Intn(60)
		edges := randomTree(n, rng)
		tr, err := Build(n, edges, rng.Intn(n))
		if err != nil {
			return false
		}
		b := make([]float64, n)
		rng.FillNormal(b)
		vecmath.Deflate(b)
		x := make([]float64, n)
		tr.Solve(x, b)
		y := make([]float64, n)
		tr.Graph().LapMulVec(y, x)
		for i := range b {
			if math.Abs(y[i]-b[i]) > 1e-8*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: LCA agrees with a naive parent-walk for random trees.
func TestQuickLCAMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vecmath.NewRNG(seed)
		n := 2 + rng.Intn(50)
		tr, err := Build(n, randomTree(n, rng), 0)
		if err != nil {
			return false
		}
		naive := func(u, v int) int {
			seen := map[int]bool{}
			for x := u; x != -1; x = tr.Parent(x) {
				seen[x] = true
			}
			for x := v; ; x = tr.Parent(x) {
				if seen[x] {
					return x
				}
			}
		}
		for trial := 0; trial < 20; trial++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if tr.LCA(u, v) != naive(u, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: PathResistance is symmetric and satisfies the path metric
// triangle equality through the LCA.
func TestQuickPathResistanceMetric(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vecmath.NewRNG(seed)
		n := 3 + rng.Intn(40)
		tr, err := Build(n, randomTree(n, rng), 0)
		if err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if math.Abs(tr.PathResistance(u, v)-tr.PathResistance(v, u)) > 1e-12 {
				return false
			}
			l := tr.LCA(u, v)
			sum := tr.PathResistance(u, l) + tr.PathResistance(l, v)
			if math.Abs(tr.PathResistance(u, v)-sum) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTreeSolve(b *testing.B) {
	rng := vecmath.NewRNG(1)
	n := 1 << 16
	tr, err := Build(n, randomTree(n, rng), 0)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, n)
	rng.FillNormal(rhs)
	vecmath.Deflate(rhs)
	x := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Solve(x, rhs)
	}
}
