package cholesky

import (
	"errors"
	"math"
	"testing"

	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/sparse"
	"graphspar/internal/testkit/fixture"
	"graphspar/internal/testkit/matrix"
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

// column lists column j of f in row order: its gathered entries, then
// its run with the rows spelled out.
func column(f *Factor, j int) []entry {
	col := append([]entry(nil), f.ent[f.colPtr[j]:f.colPtr[j+1]]...)
	for q, v := range f.run[f.runPtr[j]:f.runPtr[j+1]] {
		col = append(col, entry{f.runRow[j] + int32(q), v})
	}
	return col
}

// checkFactor asserts f stores the oracle's factor — pattern element for
// element, values bit for bit, column by column through both streams —
// and that each column's run is its last stretch of consecutive rows when
// that is at least minRun long, and empty (runRow n) otherwise.
func checkFactor(t testing.TB, name string, f *Factor, ref *refFactor) {
	t.Helper()
	if f.n != ref.n || f.NNZ() != len(ref.rowIdx) {
		t.Fatalf("%s: factor is %d×%d with %d entries, oracle %d with %d", name, f.n, f.n, f.NNZ(), ref.n, len(ref.rowIdx))
	}
	for j := 0; j < f.n; j++ {
		col := column(f, j)
		lo, hi := ref.colPtr[j], ref.colPtr[j+1]
		if len(col) != hi-lo {
			t.Fatalf("%s: column %d has %d entries, oracle %d", name, j, len(col), hi-lo)
		}
		for q, e := range col {
			if int(e.row) != ref.rowIdx[lo+q] {
				t.Fatalf("%s: column %d entry %d has row %d, oracle %d", name, j, q, e.row, ref.rowIdx[lo+q])
			}
			if math.Float64bits(e.val) != math.Float64bits(ref.val[lo+q]) {
				t.Fatalf("%s: column %d row %d is %v, oracle %v", name, j, e.row, e.val, ref.val[lo+q])
			}
		}
		stretch := 0 // the column's last stretch of consecutive off-diagonal rows
		for q := len(col) - 1; q > 0 && (q == len(col)-1 || col[q].row+1 == col[q+1].row); q-- {
			stretch++
		}
		want, wantRow := 0, int32(f.n)
		if stretch >= minRun {
			want, wantRow = stretch, col[len(col)-stretch].row
		}
		if got := int(f.runPtr[j+1] - f.runPtr[j]); got != want || f.runRow[j] != wantRow {
			t.Fatalf("%s: column %d: run of %d from row %d, pattern says %d from row %d", name, j, got, f.runRow[j], want, wantRow)
		}
	}
}

// symbolicNNZ is nnz(L) of g's grounded Laplacian under perm, counted
// row by row through the reference's ereachRef as the symbolic pass
// counts it, without allocating a factor.
func symbolicNNZ(g *graph.Graph, perm []int) int {
	ap, err := matrix.Permute(reducedLaplacianCSR(g), perm)
	if err != nil {
		panic(err)
	}
	n := ap.Rows
	parent := etreeRef(ap)
	s, w, stack := make([]int, n), make([]int, n), make([]int, n)
	for i := range w {
		w[i] = -1
	}
	nnz := 0
	for k := 0; k < n; k++ {
		nnz += n - ereachRef(ap, k, parent, s, w, stack) + 1
	}
	return nnz
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
	if symbolicNNZ(g, natural) > 1<<19 {
		orders = orders[:1]
	}
	for _, order := range orders {
		name := name + "/" + order.name
		ls, err := newLapSolver(g, order.perm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := newRefLapSolver(g, ls.Order())
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
		{"path", must(fixture.Path(200))},
		{"star", must(fixture.Star(300))},
		{"K12", must(fixture.Complete(12))},
		{"grid9", must(gen.Grid2D(9, 9, gen.UniformWeights, 1))},
		{"grid40", must(gen.Grid2D(40, 40, gen.UniformWeights, 2))},
		{"sbm4x96", sbm},
	} {
		checkKernels(t, c.name, c.g)
	}
}

// TestFactorIgnoresStoredZerosAndRepeats: FactorCSR gathers its rows
// from A itself, so a stored zero and a column stored twice must come out
// as they did from a stored permuted copy (matrix.Permute): the zero
// dropped from the pattern, the repeat's last value kept. The factor is
// the oracle's of the same matrix bit for bit, and the oracle's of the
// matrix without those entries, pattern included.
func TestFactorIgnoresStoredZerosAndRepeats(t *testing.T) {
	clean := reducedLaplacianCSR(mustGraph(t)(gen.Grid2D(9, 9, gen.UniformWeights, 1)))
	// 0 and 40 are not grid neighbors; 10 and 11 are, and their first copy
	// carries a value the second overrides.
	type add struct {
		i, j int
		v    float64
	}
	extra := []add{{0, 40, 0}, {40, 0, 0}, {10, 11, -123}, {11, 10, -123}}
	a := &sparse.CSR{Rows: clean.Rows, Cols: clean.Cols, RowPtr: make([]int, clean.Rows+1)}
	for i := 0; i < clean.Rows; i++ {
		for _, e := range extra {
			if e.i == i {
				a.ColIdx, a.Val = append(a.ColIdx, e.j), append(a.Val, e.v)
			}
		}
		lo, hi := clean.RowPtr[i], clean.RowPtr[i+1]
		a.ColIdx, a.Val = append(a.ColIdx, clean.ColIdx[lo:hi]...), append(a.Val, clean.Val[lo:hi]...)
		a.RowPtr[i+1] = len(a.ColIdx)
	}
	reversed := make([]int, clean.Rows)
	for i := range reversed {
		reversed[i] = clean.Rows - 1 - i
	}
	for _, order := range []struct {
		name string
		perm []int
	}{{"mindegree", MinDegree(clean)}, {"reversed", reversed}} {
		f, err := FactorCSR(a, order.perm)
		if err != nil {
			t.Fatalf("%s: %v", order.name, err)
		}
		for _, m := range []struct {
			name string
			a    *sparse.CSR
		}{{"same matrix", a}, {"without the extra entries", clean}} {
			ref, err := factorCSRRef(m.a, order.perm)
			if err != nil {
				t.Fatalf("%s: oracle: %v", order.name, err)
			}
			checkFactor(t, order.name+"/"+m.name, f, ref)
		}
	}
}

// TestSweepHalvesMatchReference: the factor-coordinate methods Lanczos
// runs on. Forward and Backward are each the oracle's half of the old
// sweep bit for bit (so Forward then Backward is that sweep); Coord maps
// the vertices one to one onto 0..Dim(), the ground to Dim(), and a
// vertex vector carried into those coordinates and back through the two
// halves is Solve bit for bit; and MulLT is undone by Backward and
// preserves the L_P norm, to rounding.
func TestSweepHalvesMatchReference(t *testing.T) {
	must := mustGraph(t)
	sbm, _, err := gen.SBM(4, 96, 0.15, 0.02, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path", must(fixture.Path(200))},
		{"grid9", must(gen.Grid2D(9, 9, gen.UniformWeights, 1))},
		{"grid40", must(gen.Grid2D(40, 40, gen.UniformWeights, 2))},
		{"sbm4x96", sbm},
	} {
		ls, err := NewLapSolver(c.g)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRefLapSolver(c.g, ls.Order())
		if err != nil {
			t.Fatal(err)
		}
		n, m := c.g.N(), ls.Dim()
		if m != n-1 {
			t.Fatalf("%s: Dim %d, want %d", c.name, m, n-1)
		}
		rng := vecmath.NewRNG(uint64(n))
		y, want := make([]float64, m), make([]float64, m)
		rng.FillNormal(y)
		copy(want, y)
		ls.Forward(y)
		ref.factor.forward(want)
		if !sameBits(y, want) {
			t.Fatalf("%s: Forward differs from the oracle's forward half", c.name)
		}
		ls.Backward(y)
		ref.factor.backward(want)
		if !sameBits(y, want) {
			t.Fatalf("%s: Backward differs from the oracle's backward half", c.name)
		}

		if got := ls.Coord(ls.ground); got != m {
			t.Fatalf("%s: Coord(ground) = %d, want Dim() = %d", c.name, got, m)
		}
		seen := make([]bool, n)
		for v := 0; v < n; v++ {
			k := ls.Coord(v)
			if k < 0 || k >= n || seen[k] {
				t.Fatalf("%s: Coord(%d) = %d is out of range or taken", c.name, v, k)
			}
			seen[k] = true
		}
		// scatter carries factor coordinates y back to vertex order, the
		// ground at 0.
		scatter := func(x, y []float64) {
			for v := range x {
				if k := ls.Coord(v); k < m {
					x[v] = y[k]
				} else {
					x[v] = 0
				}
			}
		}

		x, back := make([]float64, n), make([]float64, n)
		rng.FillNormal(x)
		mean := vecmath.Mean(x)
		for v := range x {
			if k := ls.Coord(v); k < m {
				y[k] = x[v] - mean
			}
		}
		ls.Forward(y)
		ls.Backward(y)
		scatter(back, y)
		vecmath.Deflate(back)
		solved := make([]float64, n)
		ls.Solve(solved, x)
		if !sameBits(back, solved) {
			t.Fatalf("%s: Forward, Backward in Coord's coordinates differ from Solve", c.name)
		}

		z := make([]float64, m)
		ls.MulLT(z, x)
		if got, wantQ := vecmath.Dot(z, z), c.g.LapQuadForm(x); math.Abs(got-wantQ) > 1e-10*wantQ {
			t.Fatalf("%s: ‖Lᵀx̂‖² = %v, xᵀL_P x = %v", c.name, got, wantQ)
		}
		ls.Backward(z)
		scatter(back, z)
		scale := vecmath.Norm2(x)
		for i := range x {
			if d := math.Abs(back[i] - (x[i] - x[ls.ground])); d > 1e-10*scale {
				t.Fatalf("%s: L⁻ᵀ Lᵀ x̂ at %d is off by %v", c.name, i, d)
			}
		}
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
	ref, err := newRefLapSolver(g, ls.Order())
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
// is pinned as the pure function its callers share: FactorCSR, newLapSolver,
// MinDegree's workspace and pattern growth.
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
		// The ordering workspace of a grounded Laplacian whose nnz and
		// dimension fit int32 can still exceed it: its off-diagonal
		// entries twice, plus n.
		{quotientLen(2*(1<<29-1<<26), 1<<26), true},
		{quotientLen(2*(1<<30+1<<28-1<<26), 1<<26), false},
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
