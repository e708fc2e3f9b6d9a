package cholesky

import (
	"errors"
	"math"
	"testing"

	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/sparse"
	"graphspar/internal/vecmath"
)

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkFactor asserts f stores the oracle's factor — pattern element for
// element, values bit for bit — and that its run markers describe the
// pattern: each points at the start of its column's last stretch of
// consecutive rows when that is at least minRun long, else past the end.
func checkFactor(t testing.TB, name string, f *Factor, ref *refFactor) {
	t.Helper()
	if f.n != ref.n || len(f.rowIdx) != len(ref.rowIdx) {
		t.Fatalf("%s: factor is %d×%d with %d entries, oracle %d with %d", name, f.n, f.n, len(f.rowIdx), ref.n, len(ref.rowIdx))
	}
	for j, p := range ref.colPtr {
		if int(f.colPtr[j]) != p {
			t.Fatalf("%s: colPtr[%d] = %d, oracle %d", name, j, f.colPtr[j], p)
		}
	}
	for p, r := range ref.rowIdx {
		if int(f.rowIdx[p]) != r {
			t.Fatalf("%s: rowIdx[%d] = %d, oracle %d", name, p, f.rowIdx[p], r)
		}
	}
	if !sameBits(f.val, ref.val) {
		t.Fatalf("%s: factor values differ from the oracle's", name)
	}
	for j := 0; j < f.n; j++ {
		lo, hi := f.colPtr[j]+1, f.colPtr[j+1]
		want := hi // where the column's last stretch of consecutive rows starts
		if lo < hi {
			for want = hi - 1; want > lo && f.rowIdx[want-1]+1 == f.rowIdx[want]; want-- {
			}
		}
		if hi-want < minRun {
			want = hi
		}
		if f.runAt[j] != want {
			t.Fatalf("%s: column %d [%d,%d): run marker %d, pattern says %d", name, j, lo, hi, f.runAt[j], want)
		}
	}
}

// checkKernels factors g's grounded Laplacian with the product kernels
// and with the scalar oracle, under the minimum-degree order and (while
// its fill stays affordable) under the natural one, and compares bit for
// bit: the factor, Laplacian
// solves, then both again after every step of a sequence of rank-1 up-
// and downdates along g's own edges (always inside the pattern).
func checkKernels(t testing.TB, name string, g *graph.Graph) {
	t.Helper()
	n := g.N()
	natural := make([]int, n-1)
	for i := range natural {
		natural[i] = i
	}
	orders := []struct {
		name string
		perm []int
	}{{"mindegree", nil}, {"natural", natural}}
	if fill, err := SymbolicFactorNNZ(g, natural); err != nil || fill > 1<<19 {
		orders = orders[:1]
	}
	for _, order := range orders {
		name := name + "/" + order.name
		ls, err := newLapSolver(g, order.perm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := newRefLapSolver(g, ls.Ordering())
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		rng := vecmath.NewRNG(uint64(n))
		b := make([]float64, n)
		x, want := make([]float64, n), make([]float64, n)
		compare := func(step string) {
			t.Helper()
			checkFactor(t, name+"/"+step, ls.factor, ref.factor)
			for rep := 0; rep < 2; rep++ {
				rng.FillNormal(b)
				ls.Solve(x, b)
				ref.Solve(want, b)
				if !sameBits(x, want) {
					t.Fatalf("%s/%s: Solve differs from the oracle", name, step)
				}
			}
			// The reduced factor's own Solve, on an unprojected vector.
			fx, fw := make([]float64, n-1), make([]float64, n-1)
			ls.factor.Solve(fx, b[:n-1])
			ref.factor.Solve(fw, b[:n-1])
			if !sameBits(fx, fw) {
				t.Fatalf("%s/%s: Factor.Solve differs from the oracle", name, step)
			}
		}
		compare("fresh")

		// Up-weight, partly down-weight, and restore a spread of edges,
		// ground-incident ones included.
		m := g.M()
		step := m/7 + 1
		for id := 0; id < m; id += step {
			e := g.Edge(id)
			for _, dw := range []float64{e.W / 2, -e.W / 4, -e.W / 4} {
				err := ls.ApplyEdge(e.U, e.V, dw)
				refErr := ref.ApplyEdge(e.U, e.V, dw)
				if err != nil || refErr != nil {
					t.Fatalf("%s: ApplyEdge(%d,%d,%g): %v, oracle %v", name, e.U, e.V, dw, err, refErr)
				}
			}
			compare("updated")
		}
	}
}

func TestKernelsMatchReference(t *testing.T) {
	must := mustGraph(t)
	sbm, _, err := gen.SBM(4, 96, 0.15, 0.02, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path", must(gen.Path(200))},
		{"star", must(gen.Star(300))},
		{"K12", must(gen.Complete(12))},
		{"grid9", must(gen.Grid2D(9, 9, gen.UniformWeights, 1))},
		{"grid40", must(gen.Grid2D(40, 40, gen.UniformWeights, 2))},
		{"sbm4x96", sbm},
	} {
		checkKernels(t, c.name, c.g)
	}
}

// A downdate that annihilates a pivot must fail the same way and leave
// the same partially modified factor behind as the oracle's.
func TestKernelsMatchReferenceOnFailedDowndate(t *testing.T) {
	g := mustGraph(t)(gen.Grid2D(6, 6, gen.UniformWeights, 3))
	ls, err := NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefLapSolver(g, ls.Ordering())
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edge(0)
	err = ls.ApplyEdge(e.U, e.V, -1e6)
	refErr := ref.ApplyEdge(e.U, e.V, -1e6)
	if !errors.Is(err, ErrNotSPD) || !errors.Is(refErr, ErrNotSPD) {
		t.Fatalf("oversized downdate: got %v, oracle %v, want ErrNotSPD", err, refErr)
	}
	checkFactor(t, "failed downdate", ls.factor, ref.factor)
}

// A factorization that bails out mid-row on ErrNotSPD (its dense row
// accumulator still dirty) leaves nothing behind: the next factorization
// of the sound matrix is the oracle's, bit for bit. Scratch is allocated
// per call, so there is no state for a failure to poison.
func TestFactorAfterNotSPDFailureUnaffected(t *testing.T) {
	red := reducedLaplacianCSR(mustGraph(t)(gen.Grid2D(12, 12, gen.UniformWeights, 4)))
	perm := MinDegree(red)
	bad := &sparse.CSR{Rows: red.Rows, Cols: red.Cols, RowPtr: red.RowPtr, ColIdx: red.ColIdx, Val: append([]float64(nil), red.Val...)}
	late := perm[len(perm)-1] // the last pivot: every earlier row has been consumed
	for p := bad.RowPtr[late]; p < bad.RowPtr[late+1]; p++ {
		if bad.ColIdx[p] == late {
			bad.Val[p] = -1
		}
	}
	if _, err := FactorCSR(bad, perm); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("negative diagonal: err = %v, want ErrNotSPD", err)
	}
	got, err := FactorCSR(red, perm)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := factorCSRRef(red, perm)
	if err != nil {
		t.Fatal(err)
	}
	checkFactor(t, "after ErrNotSPD", got, ref)
}

// spdFromPattern turns a symmetric pattern with a full diagonal into a
// strictly diagonally dominant matrix with irregular values.
func spdFromPattern(a *sparse.CSR) *sparse.CSR {
	val := make([]float64, len(a.Val))
	for i := 0; i < a.Rows; i++ {
		sum, diag := 0.0, -1
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			if j == i {
				diag = p
				continue
			}
			val[p] = -1 - float64((i+j)%5)/7
			sum -= val[p]
		}
		val[diag] = sum + 1 + float64(i%3)/3
	}
	return &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: val}
}

func FuzzFactorSolve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})   // 1×1
	f.Add([]byte{199}) // diagonal, n = 200
	f.Add([]byte{7, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6})
	f.Add([]byte{63, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 40, 2, 41, 4, 42, 6})
	dense := []byte{39} // fully dense, n = 40
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			dense = append(dense, byte(i), byte(j))
		}
	}
	f.Add(dense)
	f.Fuzz(func(t *testing.T, data []byte) {
		a := spdFromPattern(patternFromBytes(data))
		n := a.Rows
		b := make([]float64, n)
		vecmath.NewRNG(uint64(len(data))).FillNormal(b)
		x, want := make([]float64, n), make([]float64, n)
		for _, perm := range [][]int{nil, MinDegree(a)} {
			got, err := FactorCSR(a, perm)
			ref, refErr := factorCSRRef(a, perm)
			if err != nil || refErr != nil {
				t.Fatalf("factor: %v, oracle %v", err, refErr)
			}
			checkFactor(t, "fuzz", got, ref)
			got.Solve(x, b)
			ref.Solve(want, b)
			if !sameBits(x, want) {
				t.Fatal("Solve differs from the oracle")
			}
		}
	})
}

// The int32 limit cannot be reached by a test-sized factor, so the check
// is pinned as the pure function the three entry points call.
func TestIndexableLimit(t *testing.T) {
	for _, c := range []struct {
		count int
		ok    bool
	}{
		{0, true},
		{1 << 20, true},
		{math.MaxInt32, true},
		{math.MaxInt32 + 1, false},
		{math.MaxInt64, false},
	} {
		err := checkIndexable("nnz(L)", c.count)
		if (err == nil) != c.ok {
			t.Errorf("checkIndexable(%d) = %v, want ok=%v", c.count, err, c.ok)
		}
		if err != nil && !errors.Is(err, ErrTooLarge) {
			t.Errorf("checkIndexable(%d) = %v, want an ErrTooLarge", c.count, err)
		}
	}
}
