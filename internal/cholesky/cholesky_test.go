package cholesky

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/sparse"
	"graphspar/internal/testkit/fixture"
	"graphspar/internal/testkit/matrix"
	"graphspar/internal/vecmath"
)

// spd3 returns a small SPD matrix.
func spd3() *sparse.CSR {
	b := sparse.NewBuilder(3, 3)
	b.Add(0, 0, 4)
	b.Add(0, 1, -1)
	b.Add(1, 0, -1)
	b.Add(1, 1, 4)
	b.Add(1, 2, -2)
	b.Add(2, 1, -2)
	b.Add(2, 2, 5)
	return b.Build()
}

// randSPD builds a random symmetric diagonally dominant matrix (hence SPD).
func randSPD(n int, rng *vecmath.RNG) *sparse.CSR {
	b := sparse.NewBuilder(n, n)
	diag := make([]float64, n)
	for e := 0; e < 3*n; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		v := -rng.Float64()
		b.Add(i, j, v)
		b.Add(j, i, v)
		diag[i] -= v
		diag[j] -= v
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, diag[i]+1) // +1 keeps it strictly dominant
	}
	return b.Build()
}

func TestFactorSolveKnown(t *testing.T) {
	a := spd3()
	f, err := FactorCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3}
	x := make([]float64, 3)
	f.Solve(x, b)
	// Verify A x = b.
	y := make([]float64, 3)
	a.MulVec(y, x)
	for i := range b {
		if math.Abs(y[i]-b[i]) > 1e-10 {
			t.Fatalf("Ax != b at %d: %v vs %v", i, y[i], b[i])
		}
	}
}

func TestFactorRejectsNonSquare(t *testing.T) {
	b := sparse.NewBuilder(2, 3)
	b.Add(0, 0, 1)
	if _, err := FactorCSR(b.Build(), nil); !errors.Is(err, ErrNotSquare) {
		t.Fatalf("err = %v, want ErrNotSquare", err)
	}
}

func TestFactorRejectsIndefinite(t *testing.T) {
	b := sparse.NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 1, 5)
	b.Add(1, 0, 5)
	b.Add(1, 1, 1) // eigenvalues 6 and -4
	if _, err := FactorCSR(b.Build(), nil); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
}

func TestFactorSingularLaplacianFails(t *testing.T) {
	g, _ := fixture.Path(4)
	if _, err := FactorCSR(g.Laplacian(), nil); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("singular Laplacian must fail: %v", err)
	}
}

// FactorCSR validates the permutation itself: a repeated entry, one out
// of range or a wrong length is an error, not a scrambled factor.
func TestFactorRejectsNonPermutation(t *testing.T) {
	for _, perm := range [][]int{{0, 0, 1}, {0, 1, 3}, {0, 1}} {
		if _, err := FactorCSR(spd3(), perm); err == nil {
			t.Fatalf("FactorCSR accepted perm %v", perm)
		}
	}
}

func TestFactorWithPermutation(t *testing.T) {
	a := spd3()
	perm := []int{2, 0, 1}
	f, err := FactorCSR(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{-1, 0.5, 2}
	x := make([]float64, 3)
	f.Solve(x, b)
	y := make([]float64, 3)
	a.MulVec(y, x)
	for i := range b {
		if math.Abs(y[i]-b[i]) > 1e-10 {
			t.Fatalf("permuted solve wrong at %d", i)
		}
	}
}

func TestLLTEqualsPAP(t *testing.T) {
	rng := vecmath.NewRNG(5)
	a := randSPD(12, rng)
	perm := RCM(a)
	f, err := FactorCSR(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild L as CSR and compute L·Lᵀ.
	lb := sparse.NewBuilder(f.n, f.n)
	for j := 0; j < f.n; j++ {
		for _, e := range column(f, j) {
			lb.Add(int(e.row), j, e.val)
		}
	}
	l := lb.Build()
	llt, err := matrix.Mul(l, l.Transpose())
	if err != nil {
		t.Fatal(err)
	}
	pap, err := matrix.Permute(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	d, err := matrix.FrobeniusDiff(llt, pap)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-9 {
		t.Fatalf("||LLᵀ - PAPᵀ||_F = %v", d)
	}
}

func TestRCMReducesBandwidth(t *testing.T) {
	// A "arrow" pattern has terrible natural ordering; RCM should do at
	// least as well as natural on a grid.
	g, _ := gen.Grid2D(15, 15, gen.UnitWeights, 1)
	lap := g.Laplacian()
	perm := RCM(lap)
	if len(perm) != lap.Rows {
		t.Fatalf("perm length %d", len(perm))
	}
	seen := make([]bool, len(perm))
	for _, v := range perm {
		if v < 0 || v >= len(perm) || seen[v] {
			t.Fatalf("perm is not a permutation at %d", v)
		}
		seen[v] = true
	}
	bw := func(m *sparse.CSR) int {
		maxBW := 0
		for i := 0; i < m.Rows; i++ {
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				if d := i - m.ColIdx[p]; d > maxBW {
					maxBW = d
				}
				if d := m.ColIdx[p] - i; d > maxBW {
					maxBW = d
				}
			}
		}
		return maxBW
	}
	pm, err := matrix.Permute(lap, perm)
	if err != nil {
		t.Fatal(err)
	}
	if bw(pm) > bw(lap) {
		t.Fatalf("RCM bandwidth %d worse than natural %d", bw(pm), bw(lap))
	}
}

func TestRCMOrderingShrinksFill(t *testing.T) {
	g, _ := gen.Grid2D(20, 20, gen.UnitWeights, 1)
	ls, err := NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	// Natural-order factor of the same reduced matrix for comparison.
	n := g.N()
	b := sparse.NewBuilder(n-1, n-1)
	deg := g.WeightedDegrees()
	for i := 0; i < n-1; i++ {
		b.Add(i, i, deg[i])
	}
	for _, e := range g.Edges() {
		if e.U != n-1 && e.V != n-1 {
			b.Add(e.U, e.V, -e.W)
			b.Add(e.V, e.U, -e.W)
		}
	}
	f, err := FactorCSR(b.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Grid natural order is already banded, so just require RCM not to
	// blow up fill by more than 2x.
	if ls.FactorNNZ() > 2*f.NNZ() {
		t.Fatalf("RCM fill %d vs natural %d", ls.FactorNNZ(), f.NNZ())
	}
}

func TestLapSolverSolvesPseudoinverse(t *testing.T) {
	g, err := gen.Grid2D(8, 9, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	rng := vecmath.NewRNG(4)
	b := make([]float64, n)
	rng.FillNormal(b)
	vecmath.Deflate(b)
	x := make([]float64, n)
	ls.Solve(x, b)
	// L x = b and mean(x) = 0.
	y := make([]float64, n)
	g.LapMulVec(y, x)
	for i := range b {
		if math.Abs(y[i]-b[i]) > 1e-8 {
			t.Fatalf("Lx != b at %d: %v vs %v", i, y[i], b[i])
		}
	}
	if m := vecmath.Mean(x); math.Abs(m) > 1e-10 {
		t.Fatalf("mean(x) = %v", m)
	}
}

func TestLapSolverProjectsRHS(t *testing.T) {
	g, _ := fixture.Path(5)
	ls, err := NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 1, 1, 1, 1} // pure null-space component
	x := make([]float64, 5)
	ls.Solve(x, b)
	for i, v := range x {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("L⁺(1) should be 0, got x[%d]=%v", i, v)
		}
	}
}

func TestLapSolverRejectsDisconnected(t *testing.T) {
	g, _ := graph.New(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if _, err := NewLapSolver(g); err == nil {
		t.Fatal("expected error for disconnected graph")
	}
}

// A subgraph of a connected graph whose verdict is cached must not borrow
// that verdict: dropping edges can disconnect it, and the solver must
// still refuse it.
func TestLapSolverRejectsDisconnectedSubgraph(t *testing.T) {
	g, err := gen.Grid2D(4, 4, gen.UniformWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLapSolver(g); err != nil {
		t.Fatal(err)
	}
	var ids []int // every edge but those at vertex 0
	for id, e := range g.Edges() {
		if e.U != 0 {
			ids = append(ids, id)
		}
	}
	sub, err := g.SubgraphEdges(ids)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLapSolver(sub); !errors.Is(err, graph.ErrDisconnected) {
		t.Fatalf("NewLapSolver(disconnected subgraph) = %v, want graph.ErrDisconnected", err)
	}
}

func TestLapSolverSingleVertex(t *testing.T) {
	g, _ := graph.New(1, nil)
	ls, err := NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{99}
	ls.Solve(x, []float64{5})
	if x[0] != 0 {
		t.Fatalf("single-vertex solve = %v, want 0", x[0])
	}
	if ls.FactorNNZ() != 0 {
		t.Fatal("single vertex has no factor")
	}
}

// Property: Solve inverts random SDD matrices.
func TestQuickFactorSolve(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vecmath.NewRNG(seed)
		n := 2 + rng.Intn(30)
		a := randSPD(n, rng)
		fac, err := FactorCSR(a, RCM(a))
		if err != nil {
			return false
		}
		b := make([]float64, n)
		rng.FillNormal(b)
		x := make([]float64, n)
		fac.Solve(x, b)
		y := make([]float64, n)
		a.MulVec(y, x)
		for i := range b {
			if math.Abs(y[i]-b[i]) > 1e-7*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: LapSolver agrees with the tree solver on spanning trees.
func TestQuickLapSolverVsTreeSolve(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vecmath.NewRNG(seed)
		n := 2 + rng.Intn(30)
		edges := make([]graph.Edge, 0, n-1)
		for v := 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: rng.Intn(v), V: v, W: 0.5 + rng.Float64()})
		}
		g, err := graph.New(n, edges)
		if err != nil {
			return false
		}
		ls, err := NewLapSolver(g)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		rng.FillNormal(b)
		vecmath.Deflate(b)
		x := make([]float64, n)
		ls.Solve(x, b)
		y := make([]float64, n)
		g.LapMulVec(y, x)
		for i := range b {
			if math.Abs(y[i]-b[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLapSolverFactorGrid(b *testing.B) {
	g, err := gen.Grid2D(60, 60, gen.UniformWeights, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewLapSolver(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLapSolverSolveGrid(b *testing.B) {
	g, err := gen.Grid2D(60, 60, gen.UniformWeights, 1)
	if err != nil {
		b.Fatal(err)
	}
	ls, err := NewLapSolver(g)
	if err != nil {
		b.Fatal(err)
	}
	rng := vecmath.NewRNG(2)
	rhs := make([]float64, g.N())
	rng.FillNormal(rhs)
	vecmath.Deflate(rhs)
	x := make([]float64, g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls.Solve(x, rhs)
	}
}

// TestLapSolverSessions: sessions share the factorization but solve
// independently — concurrent sessions must reproduce the sequential
// solutions exactly.
func TestLapSolverSessions(t *testing.T) {
	g, err := gen.Grid2D(6, 4, gen.UniformWeights, 9)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	rhs := make([][]float64, 8)
	want := make([][]float64, len(rhs))
	for k := range rhs {
		rhs[k] = make([]float64, n)
		for i := range rhs[k] {
			rhs[k][i] = float64((i+k)%5) - 2
		}
		want[k] = make([]float64, n)
		ls.Solve(want[k], rhs[k])
	}
	var wg sync.WaitGroup
	got := make([][]float64, len(rhs))
	for k := range rhs {
		wg.Add(1)
		go func(k int, s *LapSolver) {
			defer wg.Done()
			got[k] = make([]float64, n)
			s.Solve(got[k], rhs[k])
		}(k, ls.Session())
	}
	wg.Wait()
	for k := range rhs {
		for i := range got[k] {
			if got[k][i] != want[k][i] {
				t.Fatalf("session solve %d differs at %d: %v != %v", k, i, got[k][i], want[k][i])
			}
		}
	}
}

// LapSolver.Bytes prices the factor at its layout: 16 B a gathered entry
// of L (an int32 row and a float64 value, padded) and 8 B a run value;
// int32 column and run pointers, run rows and both permutations; the int
// elimination tree; and the float64 solve and update buffers only once
// they exist. Spare capacity a growing update leaves is priced.
func TestLapSolverBytesAtInt32Layout(t *testing.T) {
	g, err := gen.Grid2D(12, 12, gen.UniformWeights, 4)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	dim, nnz := int64(ls.Dim()), int64(ls.FactorNNZ())
	ents, runs := int64(len(ls.factor.ent)), int64(len(ls.factor.run))
	if ents+runs != nnz || runs == 0 {
		t.Fatalf("%d gathered and %d run entries for nnz(L) = %d; the case needs both", ents, runs, nnz)
	}
	want := 16*ents + 8*runs + 2*4*(dim+1) + 3*4*dim + 8*dim
	if got := ls.Bytes(); got != want {
		t.Fatalf("fresh factor: Bytes = %d, want %d", got, want)
	}
	b, x := make([]float64, g.N()), make([]float64, g.N())
	b[0], b[1] = 1, -1
	ls.Solve(x, b)
	if want += 8 * dim; ls.Bytes() != want {
		t.Fatalf("after Solve: Bytes = %d, want %d (+ the solve buffer)", ls.Bytes(), want)
	}
	e := g.Edge(0)
	if err := ls.ApplyEdge(e.U, e.V, 0.5); err != nil {
		t.Fatal(err)
	}
	if want += 8 * dim; ls.Bytes() != want {
		t.Fatalf("after ApplyEdge: Bytes = %d, want %d (+ the update buffer)", ls.Bytes(), want)
	}
	// An edge outside the pattern grows it into arrays with spare
	// capacity, which Bytes prices as held.
	f := ls.factor
	if a, b := f.inv[0], f.inv[g.N()-2]; f.hasRow(min(a, b), max(a, b)) {
		t.Fatal("the case needs an edge outside the pattern")
	}
	if err := ls.ApplyEdge(0, g.N()-2, 0.5); err != nil {
		t.Fatal(err)
	}
	if cap(f.ent) == len(f.ent) && cap(f.run) == len(f.run) {
		t.Fatal("a growing update left no spare capacity; the case needs some")
	}
	want = 16*int64(cap(f.ent)) + 8*int64(cap(f.run)) + 2*4*(dim+1) + 3*4*dim + 3*8*dim
	if got := ls.Bytes(); got != want {
		t.Fatalf("after a growing ApplyEdge: Bytes = %d, want %d (capacity priced)", got, want)
	}
	one, err := NewLapSolver(fixture.Graph(1, nil))
	if err != nil || one.Bytes() != 0 {
		t.Fatalf("one vertex: Bytes = %d, err %v; want 0", one.Bytes(), err)
	}
}
