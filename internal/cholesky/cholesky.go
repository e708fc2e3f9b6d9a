// Package cholesky implements a sparse Cholesky (LLᵀ) factorization in the
// CSparse style — elimination tree, two-pass symbolic analysis via ereach,
// up-looking numeric factorization — plus minimum-degree and
// nested-dissection orderings and a grounded-Laplacian solver
// (minimum-degree ordered). It stands in for the CHOLMOD direct
// solver the paper uses as the Table 3 baseline, and factors ultra-sparse
// sparsifier Laplacians as PCG preconditioners (Table 2).
//
// A factor is built one way: FactorCSR allocates its scratch (marker,
// pattern and stack arrays, column counts, the dense row accumulator)
// where it uses it and drops it on return. Scratch is deliberately not
// pooled across factorizations: a pool keeps it live between operations,
// which measured 2–7 MB of peak RSS end to end and bought no time on any
// benchmark workload.
//
// The factor is stored compactly and its kernels know where it is dense.
// Column pointers, row indices and the permutation are int32, so a
// dimension or a symbolic nnz(L) above math.MaxInt32 is refused with
// ErrTooLarge before any index is truncated or factor storage allocated.
// Each column also carries one marker: the
// position where its tail becomes a run of consecutive row indices (a
// minimum-degree factor of a sparsifier ends in a dense trailing
// triangle; on SBM 4×512 at σ² = 100 that is 73 % of nnz(L)). The loops
// that walk a column — the numeric pass's accumulator update, the two
// triangular sweeps of Solve, the rank-1 update — gather through rowIdx
// up to the marker and walk the run as two plain slices: the same
// operands in the same order, one operation per entry, so every float is
// the one an index-gathering loop produces (factor_ref_test.go keeps that
// loop as the oracle). The backward sweep gains nothing from the run: its
// s −= L[r,j]·y[r] is one dependent chain per column and runs at
// floating-point add latency whatever the addressing; only a reassociated
// sum would lift it, and that would move every downstream bit.
package cholesky

import (
	"errors"
	"fmt"
	"math"

	"graphspar/internal/graph"
	"graphspar/internal/sparse"
	"graphspar/internal/vecmath"
)

// Errors returned by the factorization.
var (
	ErrNotSPD    = errors.New("cholesky: matrix is not positive definite")
	ErrNotSquare = errors.New("cholesky: matrix is not square")
	// ErrTooLarge is returned when the dimension or the symbolic nnz(L)
	// does not fit the factor's int32 index storage.
	ErrTooLarge = errors.New("cholesky: system too large for int32 indices")
)

// checkIndexable is the one place the int32 limit lives: MinDegree's
// vertex ids and the Factor's row indices and column pointers are int32,
// so every count that becomes one passes through here first.
func checkIndexable(what string, count int) error {
	if count > math.MaxInt32 {
		return fmt.Errorf("%w: %s %d exceeds %d", ErrTooLarge, what, count, math.MaxInt32)
	}
	return nil
}

// minRun is the shortest tail of consecutive row indices the column
// kernels walk as a plain slice; setting up the slices costs more than
// gathering through a shorter one.
const minRun = 4

// Factor is a sparse lower-triangular Cholesky factor stored in CSC
// (column-major) form, together with the symmetric permutation applied
// before factorization: P A Pᵀ = L Lᵀ. Indices are int32 (see
// ErrTooLarge). Column j occupies [colPtr[j], colPtr[j+1]): the diagonal
// first, then the off-diagonal rows ascending, of which
// [runAt[j], colPtr[j+1]) are consecutive — rowIdx[p+1] = rowIdx[p]+1 —
// and at least minRun long (runAt[j] = colPtr[j+1] when the column has no
// such tail). The marker depends on the pattern only, so rank-1 updates,
// which never change the pattern, leave it valid.
type Factor struct {
	n      int
	colPtr []int32
	rowIdx []int32
	runAt  []int32
	val    []float64
	perm   []int32 // perm[new] = old
	inv    []int32 // inv[old] = new
	parent []int   // elimination tree of the permuted matrix
	work   []float64
	upWork []float64 // dense scatter workspace for rank-1 updates
}

// NNZ returns the number of stored entries in L (the factor's memory
// footprint, reported as M_D in the Table 3 reproduction).
func (f *Factor) NNZ() int { return len(f.val) }

// Session returns a view of the factor that shares the (immutable)
// numeric factorization but owns a private work buffer, so concurrent
// goroutines can Solve through separate sessions without copying L.
func (f *Factor) Session() *Factor {
	s := *f
	s.work = nil
	s.upWork = nil
	return &s
}

// N returns the dimension.
func (f *Factor) N() int { return f.n }

// etree computes the elimination tree of the (full, symmetric) CSR matrix.
func etree(a *sparse.CSR) []int {
	n := a.Rows
	parent := make([]int, n)
	ancestor := make([]int, n)
	for k := 0; k < n; k++ {
		parent[k] = -1
		ancestor[k] = -1
		for p := a.RowPtr[k]; p < a.RowPtr[k+1]; p++ {
			i := a.ColIdx[p]
			for i != -1 && i < k {
				next := ancestor[i]
				ancestor[i] = k
				if next == -1 {
					parent[i] = k
					break
				}
				i = next
			}
		}
	}
	return parent
}

// ereach computes the nonzero pattern of row k of L as the union of etree
// paths from the below-diagonal entries of row k of A up to (excluding) k.
// The pattern is written to s[top:n] in topological (ascending-depth)
// order and top is returned. w is a marker workspace with w[k] set by the
// caller convention used here (w[v] == k means visited for row k).
func ereach(a *sparse.CSR, k int, parent, s, w, stack []int) int {
	n := a.Rows
	top := n
	w[k] = k
	for p := a.RowPtr[k]; p < a.RowPtr[k+1]; p++ {
		i := a.ColIdx[p]
		if i >= k {
			continue
		}
		depth := 0
		for ; w[i] != k; i = parent[i] {
			stack[depth] = i
			depth++
			w[i] = k
		}
		for depth > 0 {
			depth--
			top--
			s[top] = stack[depth]
		}
	}
	return top
}

// FactorCSR factors the symmetric positive definite matrix A (full
// symmetric CSR storage, both triangles present) with the given symmetric
// permutation (perm[new] = old). Passing nil perm uses the identity.
func FactorCSR(a *sparse.CSR, perm []int) (*Factor, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: %dx%d", ErrNotSquare, a.Rows, a.Cols)
	}
	n := a.Rows
	if err := checkIndexable("dimension", n); err != nil {
		return nil, err
	}
	if perm == nil {
		perm = make([]int, n)
		for i := range perm {
			perm[i] = i
		}
	}
	ap, err := a.Permute(perm)
	if err != nil {
		return nil, err
	}

	parent := etree(ap)
	s := make([]int, n)
	w := make([]int, n)
	stack := make([]int, n)
	for i := range w {
		w[i] = -1
	}

	// Symbolic pass: count entries per column of L. Row k contributes one
	// entry to every column in its ereach pattern, plus its own diagonal.
	colCount := make([]int, n)
	nnz := 0
	for k := 0; k < n; k++ {
		top := ereach(ap, k, parent, s, w, stack)
		for t := top; t < n; t++ {
			colCount[s[t]]++
		}
		colCount[k]++ // diagonal
		nnz += n - top + 1
	}
	if err := checkIndexable("nnz(L)", nnz); err != nil {
		return nil, err
	}
	f := &Factor{
		n:      n,
		colPtr: make([]int32, n+1),
		rowIdx: make([]int32, nnz),
		runAt:  make([]int32, n),
		val:    make([]float64, nnz),
		perm:   make([]int32, n),
		inv:    make([]int32, n),
		parent: parent,
	}
	colPtr, rowIdx, runAt, val := f.colPtr, f.rowIdx, f.runAt, f.val
	for newIdx, oldIdx := range perm {
		f.perm[newIdx] = int32(oldIdx)
		f.inv[oldIdx] = int32(newIdx)
	}

	// Numeric up-looking pass.
	for i := range w {
		w[i] = -1
	}
	// Dense accumulator for row k: every touched position is reset to zero
	// as its pattern row is consumed.
	x := make([]float64, n)
	colNext := make([]int, n) // next free slot per column
	// Diagonal entries go in first; colNext starts just past them, and so
	// does every column's run marker: while a column fills, runAt is where
	// its last stretch of consecutive rows began.
	for j := 0; j < n; j++ {
		colPtr[j+1] = colPtr[j] + int32(colCount[j])
		colNext[j] = int(colPtr[j]) + 1
		runAt[j] = colPtr[j] + 1
	}
	for k := 0; k < n; k++ {
		top := ereach(ap, k, parent, s, w, stack)
		// Scatter row k of A (entries with col <= k).
		var d float64
		for p := ap.RowPtr[k]; p < ap.RowPtr[k+1]; p++ {
			j := ap.ColIdx[p]
			if j < k {
				x[j] = ap.Val[p]
			} else if j == k {
				d = ap.Val[p]
			}
		}
		for t := top; t < n; t++ {
			i := s[t]
			lo, hi := int(colPtr[i]), colNext[i]
			lki := x[i] / val[lo] // over the diagonal of column i
			x[i] = 0
			// Update the accumulator with column i's existing entries:
			// gathered up to the column's current run, sliced along it.
			mid := int(runAt[i])
			if hi-mid < minRun {
				mid = hi
			}
			rows := rowIdx[lo+1 : mid]
			for q, v := range val[lo+1 : mid] {
				x[rows[q]] -= v * lki
			}
			if mid < hi {
				vs := val[mid:hi]
				xs := x[rowIdx[mid]:][:len(vs)]
				for q, v := range vs {
					xs[q] -= v * lki
				}
			}
			d -= lki * lki
			if rowIdx[hi-1] != int32(k-1) {
				runAt[i] = int32(hi) // row k starts a new stretch
			}
			rowIdx[hi] = int32(k)
			val[hi] = lki
			colNext[i] = hi + 1
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: pivot %d is %v", ErrNotSPD, k, d)
		}
		rowIdx[colPtr[k]] = int32(k)
		val[colPtr[k]] = math.Sqrt(d)
	}
	for j := 0; j < n; j++ {
		if colPtr[j+1]-runAt[j] < minRun {
			runAt[j] = colPtr[j+1]
		}
	}
	return f, nil
}

// Solve solves A x = b using the factorization (x and b may alias).
// Solve reuses an internal work buffer, so a Factor must not be shared by
// concurrent solves.
func (f *Factor) Solve(x, b []float64) {
	if len(x) != f.n || len(b) != f.n {
		panic("cholesky: Solve dimension mismatch")
	}
	y := f.workVec()
	for newIdx, oldIdx := range f.perm {
		y[newIdx] = b[oldIdx]
	}
	f.sweep(y)
	for newIdx, oldIdx := range f.perm {
		x[oldIdx] = y[newIdx]
	}
}

// workVec returns the factor's length-n solve buffer.
func (f *Factor) workVec() []float64 {
	if f.work == nil {
		f.work = make([]float64, f.n)
	}
	return f.work
}

// sweep solves L Lᵀ w = y in place on the permuted vector y. Each column
// is walked in two parts: the entries before runAt[j] gather through
// rowIdx, the run after it is a plain slice of y.
func (f *Factor) sweep(y []float64) {
	colPtr, rowIdx, runAt, val := f.colPtr, f.rowIdx, f.runAt, f.val
	// Forward solve L z = y (CSC columns, in place on y).
	for j := 0; j < f.n; j++ {
		p0, mid, hi := colPtr[j], runAt[j], colPtr[j+1]
		yj := y[j] / val[p0]
		y[j] = yj
		rows := rowIdx[p0+1 : mid]
		for q, v := range val[p0+1 : mid] {
			y[rows[q]] -= v * yj
		}
		if mid < hi {
			vs := val[mid:hi]
			ys := y[rowIdx[mid]:][:len(vs)]
			for q, v := range vs {
				ys[q] -= v * yj
			}
		}
	}
	// Backward solve Lᵀ w = z. One dependent subtraction chain per
	// column: latency-bound with or without the run (see the package doc).
	for j := f.n - 1; j >= 0; j-- {
		p0, mid, hi := colPtr[j], runAt[j], colPtr[j+1]
		s := y[j]
		rows := rowIdx[p0+1 : mid]
		for q, v := range val[p0+1 : mid] {
			s -= v * y[rows[q]]
		}
		if mid < hi {
			vs := val[mid:hi]
			ys := y[rowIdx[mid]:][:len(vs)]
			for q, v := range vs {
				s -= v * ys[q]
			}
		}
		y[j] = s / val[p0]
	}
}

// LapSolver solves connected-graph Laplacian systems L_G x = b directly by
// grounding one vertex (deleting its row and column makes the matrix SPD),
// factoring the reduced matrix under a minimum-degree ordering (or a
// caller-supplied one), and restoring a zero-mean solution — the
// pseudoinverse action x = L_G⁺ b.
type LapSolver struct {
	n      int
	ground int
	factor *Factor
	perm   []int     // elimination order of the reduced system
	upIdx  []int     // ApplyEdge scratch
	upVal  []float64 // ApplyEdge scratch
}

// NewLapSolver grounds the last vertex of g, orders with minimum degree
// and factors.
func NewLapSolver(g *graph.Graph) (*LapSolver, error) {
	return newLapSolver(g, nil)
}

// NewLapSolverOrdered factors with a caller-supplied elimination order
// of the reduced (n-1)-vertex system instead of recomputing minimum
// degree: an order computed for a structurally similar graph stays
// near-optimal, and a caller that keeps updating the factor wants the
// order, and with it the elimination tree, to hold still. Skipping
// MinDegree saves about the cost of one more numeric factorization — it
// no longer dwarfs one. The dynamic maintainer reuses the order of its
// last full build across incremental refactorizations. The permutation
// is validated; a wrong length or a non-permutation is an error.
func NewLapSolverOrdered(g *graph.Graph, perm []int) (*LapSolver, error) {
	if err := validatePerm(perm, g.N()-1); err != nil {
		return nil, err
	}
	return newLapSolver(g, perm)
}

func validatePerm(perm []int, want int) error {
	if perm == nil {
		return errors.New("cholesky: nil permutation")
	}
	if len(perm) != want {
		return fmt.Errorf("cholesky: permutation length %d, want %d", len(perm), want)
	}
	seen := make([]bool, len(perm))
	for _, v := range perm {
		if v < 0 || v >= len(perm) || seen[v] {
			return errors.New("cholesky: invalid permutation")
		}
		seen[v] = true
	}
	return nil
}

// SymbolicFactorNNZ counts the factor entries the given elimination order
// would produce for g's reduced Laplacian — elimination tree plus ereach
// column counts, no numeric work. The dynamic maintainer calls this to
// test a cached order's fill before paying for (exactly one) numeric
// factorization, instead of factoring twice when the order has gone stale.
func SymbolicFactorNNZ(g *graph.Graph, perm []int) (int, error) {
	n := g.N()
	if n <= 1 {
		return 0, nil
	}
	if err := validatePerm(perm, n-1); err != nil {
		return 0, err
	}
	ap, err := reducedLaplacianCSR(g).Permute(perm)
	if err != nil {
		return 0, err
	}
	rows := n - 1
	parent := etree(ap)
	s := make([]int, rows)
	w := make([]int, rows)
	stack := make([]int, rows)
	for i := range w {
		w[i] = -1
	}
	nnz := 0
	for k := 0; k < rows; k++ {
		top := ereach(ap, k, parent, s, w, stack)
		nnz += rows - top + 1 // path entries plus the diagonal
	}
	return nnz, nil
}

func newLapSolver(g *graph.Graph, perm []int) (*LapSolver, error) {
	if err := g.RequireConnected(); err != nil {
		return nil, err
	}
	n := g.N()
	if n == 1 {
		return &LapSolver{n: 1, ground: 0}, nil
	}
	if err := checkIndexable("dimension", n-1); err != nil {
		return nil, err
	}
	red := reducedLaplacianCSR(g)
	// Minimum degree keeps near-tree sparsifier factors nearly fill-free.
	if perm == nil {
		perm = MinDegree(red)
	}
	f, err := FactorCSR(red, perm)
	if err != nil {
		return nil, err
	}
	return &LapSolver{n: n, ground: n - 1, factor: f, perm: perm}, nil
}

// Ordering returns the elimination order the reduced system was factored
// with (nil for n=1). Callers must not mutate it.
func (ls *LapSolver) Ordering() []int { return ls.perm }

// reducedLaplacianCSR assembles the grounded Laplacian (ground = n-1's
// row and column dropped, diagonals keep the full weighted degree)
// directly into row- and column-sorted CSR in O(n + m), with no triplet
// sort: the edge list is (U,V)-sorted, so each row receives its smaller
// neighbors in ascending order (edges where it is V), then the diagonal,
// then its larger neighbors in ascending order (edges where it is U).
// This is the per-refactorization hot path of the dynamic maintainer.
func reducedLaplacianCSR(g *graph.Graph) *sparse.CSR {
	n := g.N()
	ground := n - 1
	rows := n - 1
	// Per-row counts: smaller-neighbor entries and total off-diagonals.
	small := make([]int, rows)
	total := make([]int, rows)
	for _, e := range g.Edges() {
		if e.U == ground || e.V == ground {
			continue
		}
		small[e.V]++
		total[e.U]++
		total[e.V]++
	}
	ptr := make([]int, rows+1)
	for i := 0; i < rows; i++ {
		ptr[i+1] = ptr[i] + total[i] + 1 // +1 for the diagonal
	}
	nnz := ptr[rows]
	col := make([]int, nnz)
	val := make([]float64, nnz)
	// The counts become write cursors: row i's smaller neighbors fill from
	// ptr[i], its larger ones from just past the diagonal.
	nextSmall, nextLarge := small, total
	for i := 0; i < rows; i++ {
		d := ptr[i] + small[i]
		col[d] = i
		nextSmall[i], nextLarge[i] = ptr[i], d+1
	}
	// Diagonals first, while nextLarge still points just past them. They
	// accumulate in edge order, ground edges included — the same sums,
	// bit for bit, as graph.WeightedDegrees.
	for _, e := range g.Edges() {
		if e.U != ground {
			val[nextLarge[e.U]-1] += e.W
		}
		if e.V != ground {
			val[nextLarge[e.V]-1] += e.W
		}
	}
	for _, e := range g.Edges() {
		if e.U == ground || e.V == ground {
			continue
		}
		k := nextSmall[e.V]
		col[k], val[k] = e.U, -e.W
		nextSmall[e.V]++
		k = nextLarge[e.U]
		col[k], val[k] = e.V, -e.W
		nextLarge[e.U]++
	}
	return &sparse.CSR{Rows: rows, Cols: rows, RowPtr: ptr, ColIdx: col, Val: val}
}

// Session returns a solver that shares the receiver's factorization but
// owns private scratch buffers. A LapSolver must not be used by two
// goroutines at once; give each goroutine its own session instead.
func (ls *LapSolver) Session() *LapSolver {
	s := *ls
	if s.factor != nil {
		s.factor = s.factor.Session()
	}
	s.upIdx = nil
	s.upVal = nil
	return &s
}

// FactorNNZ returns the number of stored factor entries (0 for n=1).
func (ls *LapSolver) FactorNNZ() int {
	if ls.factor == nil {
		return 0
	}
	return ls.factor.NNZ()
}

// Solve computes x = L_G⁺ b: the right-hand side is projected to zero mean,
// the grounded system is solved, and the result is shifted to zero mean.
// x and b must have length n and may not alias.
func (ls *LapSolver) Solve(x, b []float64) {
	if len(x) != ls.n || len(b) != ls.n {
		panic("cholesky: LapSolver dimension mismatch")
	}
	if ls.n == 1 {
		x[0] = 0
		return
	}
	// The reduced system keeps vertices 0..n-2 under their own ids, so the
	// projected right-hand side is gathered straight into the factor's
	// permuted work vector and the solution scattered straight into x.
	f := ls.factor
	mean := vecmath.Mean(b)
	y := f.workVec()
	for newIdx, oldIdx := range f.perm {
		y[newIdx] = b[oldIdx] - mean
	}
	f.sweep(y)
	for newIdx, oldIdx := range f.perm {
		x[oldIdx] = y[newIdx]
	}
	x[ls.ground] = 0
	vecmath.Deflate(x)
}
