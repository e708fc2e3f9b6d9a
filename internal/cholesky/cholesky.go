// Package cholesky implements a sparse Cholesky (LLᵀ) factorization in the
// CSparse style — elimination tree, two-pass symbolic analysis via ereach,
// up-looking numeric factorization — plus an approximate minimum degree
// (AMD) ordering and a grounded-Laplacian solver ordered by it. AMD is the
// package's one ordering: every factorization the product makes, a
// stream's refactorizations included, is AMD-ordered. It stands in for the
// CHOLMOD direct solver the paper uses as the Table 3 baseline, whose
// default ordering is AMD too, and factors ultra-sparse sparsifier
// Laplacians as PCG preconditioners (Table 2).
//
// The ordering, MinDegree, is the AMD algorithm of Amestoy, Davis & Duff
// (SIAM J. Matrix Anal. Appl. 17(4), 1996) on a quotient graph: eliminated
// vertices become elements that stand for the cliques they form, so the
// elimination graph is never rewritten and the ordering's cost follows the
// lists it touches, not the fill. Its degrees are upper bounds, so it may
// pick another pivot than exact minimum degree would; the fill it reaches
// on the product's sparsifiers is within 1.05× of exact minimum degree's
// (TestMinDegreeFillNoWorse), and the factor is still L_P, under another
// order, so solves differ only by rounding.
//
// A factor is built one way: FactorCSR allocates its scratch (marker,
// pattern and stack arrays, column counts, the dense row accumulator)
// where it uses it and drops it on return. Scratch is deliberately not
// pooled across factorizations: a pool keeps it live between operations,
// which measured 2–7 MB of peak RSS end to end and bought no time on any
// benchmark workload.
//
// FactorCSR reads A through the order: each pass gathers row k of P·A·Pᵀ
// from row perm[k] of A when it needs it, and the numeric pass scatters
// the gathered row's values and sorts its columns, so no permuted copy of
// A is stored and the floats are those a stored copy gave.
//
// The factor is stored compactly and its kernels know where it is dense.
// A column is at most two streams. Its diagonal and the off-diagonal
// rows before its run are 16-byte entries, a row index (int32) and its
// value (float64) side by side, so a kernel gathering through the column
// reads one array, not two parallel ones. Its run — the last stretch of
// consecutive rows, when at least minRun long; a minimum-degree factor of
// a sparsifier ends in a dense trailing triangle, on SBM 4×512 at σ² = 100
// 76 % of nnz(L) — is plain float64 values whose rows are implicit. The
// run's rows are deliberately not packed with its values: on that SBM
// factor (2-core Xeon, 2 MB of L2 a core), 16 bytes an entry where 8 do
// slowed the solve by a fifth and the numeric pass by a third. Column and run pointers, row indices and
// the permutation are int32, so a dimension or a symbolic nnz(L) above
// math.MaxInt32 is refused with ErrTooLarge before any index is truncated
// or factor storage allocated. The symbolic pass finds each column's run,
// so the numeric pass writes every value where it stays. The loops that
// walk a column — the numeric pass's accumulator update, the two
// triangular sweeps, Lᵀ·, the rank-1 update — gather through the entries
// and walk the run against a plain slice of the vector: the same operands
// in the same order, one operation per entry, so every float is the one
// an index-gathering loop over parallel arrays produces
// (factor_ref_test.go keeps that loop as the oracle). The backward sweep
// gains nothing from the run: its s −= L[r,j]·y[r] is one dependent chain
// per column and runs at floating-point add latency whatever the
// addressing; only a reassociated sum would lift it, and that would move
// every downstream bit.
//
// The two sweeps are separate halves, forward (L z = y) and backward
// (Lᵀ w = z); Solve runs one after the other. A LapSolver also exposes
// each half on its own, for the similarity certificate's Lanczos run in
// the factor's coordinates (eig's GeneralizedLanczos).
//
// A factor is modified in place by rank-1 updates and downdates
// (UpdateSparse; LapSolver.ApplyEdge for one edge's weight change), which
// rotate only the columns on one elimination-tree path. An update outside
// the factor's pattern grows the pattern first, by the symbolic update of
// Davis & Hager: the column where the path starts gains the missing rows,
// the columns above it on the new elimination tree gain what that forces,
// and the factor is laid out again with the new entries zero: each grown
// column is split by the rule a factorization splits it by (runOf), and
// the columns between grown ones shift along their arrays, which keep an
// eighth of spare capacity for the next growth. LapSolver.Grow does the
// symbolic part for a whole batch of edges and lays the factor out once.
// The pattern never shrinks: it is the
// symbolic factor, under the factor's order, of every edge the factor has
// absorbed, a downdated-away edge included, until the next factorization.
package cholesky

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
// vertex ids and workspace offsets and the Factor's row indices and
// column pointers are int32, so every count that becomes one passes
// through here first.
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

// entry is one gathered element of L: its row and its value side by
// side (16 bytes with padding).
type entry struct {
	row int32
	val float64
}

// Factor is a sparse lower-triangular Cholesky factor stored by columns,
// together with the symmetric permutation applied before factorization:
// P A Pᵀ = L Lᵀ. Indices are int32 (see ErrTooLarge). Column j is at most
// two streams. ent[colPtr[j]:colPtr[j+1]] holds its diagonal, then its
// off-diagonal rows ascending up to its run; run[runPtr[j]:runPtr[j+1]]
// holds the values of the run — the column's last stretch of consecutive
// rows, when that is at least minRun long — at rows runRow[j],
// runRow[j]+1, … (empty, with runRow[j] = n, when the column has no such
// tail). The split depends on the pattern only (runOf): a rank-1 update
// inside the pattern leaves it valid, and one that grows the pattern
// splits the columns it grows again. ent and run may hold spare capacity
// for the pattern to grow into.
type Factor struct {
	n      int
	colPtr []int32
	ent    []entry
	runPtr []int32
	runRow []int32
	run    []float64
	perm   []int32 // perm[new] = old
	inv    []int32 // inv[old] = new
	parent []int   // elimination tree of the permuted matrix
	work   []float64
	upWork []float64 // dense scatter workspace for rank-1 updates
}

// NNZ returns the number of stored entries in L (the factor's memory
// footprint, reported as M_D in the Table 3 reproduction).
func (f *Factor) NNZ() int { return len(f.ent) + len(f.run) }

// Session returns a view of the factor that shares the (immutable)
// numeric factorization but owns a private work buffer, so concurrent
// goroutines can Solve through separate sessions without copying L. A
// rank-1 update that grows the pattern lays the factor out again, in
// storage the session does not see or under its feet: a session must not
// be used after one.
func (f *Factor) Session() *Factor {
	s := *f
	s.work = nil
	s.upWork = nil
	return &s
}

// permutedRows gathers the rows of P·A·Pᵀ one at a time straight from
// A, so no permuted copy of A is built: row k is row perm[k] of A, each
// column c renamed inv[c]. Stored zeros are dropped.
type permutedRows struct {
	a    *sparse.CSR
	perm []int
	inv  []int32
	cols []int32 // the gathered row's columns left of the diagonal
}

// lower gathers row k's columns left of the diagonal, in A's order.
func (r *permutedRows) lower(k int) []int32 {
	a := r.a
	r.cols = r.cols[:0]
	old := r.perm[k]
	for p := a.RowPtr[old]; p < a.RowPtr[old+1]; p++ {
		if j := r.inv[a.ColIdx[p]]; int(j) < k && a.Val[p] != 0 {
			r.cols = append(r.cols, j)
		}
	}
	return r.cols
}

// sorted gathers row k's columns left of the diagonal in ascending order,
// scatters their values into x and returns the diagonal (zero if none is
// stored). A column stored twice keeps its last value, in A's order, as
// scattering a stored copy's row in order did.
func (r *permutedRows) sorted(k int, x []float64) (cols []int32, diag float64) {
	a := r.a
	cols = r.cols[:0]
	old := r.perm[k]
	for p := a.RowPtr[old]; p < a.RowPtr[old+1]; p++ {
		v := a.Val[p]
		if v == 0 {
			continue
		}
		switch j := r.inv[a.ColIdx[p]]; {
		case int(j) < k:
			cols = append(cols, j)
			x[j] = v
		case int(j) == k:
			diag = v
		}
	}
	slices.Sort(cols)
	r.cols = cols
	return cols, diag
}

// etreeRow extends the elimination tree by row k, given the row's columns
// left of the diagonal (in any order): every root reached from them, with
// path compression through ancestor, becomes a child of k. After row k,
// the parent of every node whose parent is at most k is set.
func etreeRow(k int, cols []int32, parent []int, ancestor []int32) {
	parent[k], ancestor[k] = -1, -1
	for _, i := range cols {
		for i != -1 && int(i) < k {
			next := ancestor[i]
			ancestor[i] = int32(k)
			if next == -1 {
				parent[i] = k
				break
			}
			i = next
		}
	}
}

// ereach computes the nonzero pattern of row k of L as the union of etree
// paths from the columns of row k of A left of the diagonal up to
// (excluding) k. The pattern is written to s[top:n] in topological
// (ascending-depth) order, which follows the order of cols, and top is
// returned. w is a marker workspace (w[v] == k means visited for row k).
func ereach(cols []int32, k int, parent []int, s, w, stack []int32) int {
	top := len(s)
	k32 := int32(k)
	w[k] = k32
	for _, c := range cols {
		depth := 0
		for i := int(c); w[i] != k32; i = parent[i] {
			stack[depth] = int32(i)
			depth++
			w[i] = k32
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
// permutation (perm[new] = old), which is validated; nil perm is the
// identity. Row k of P·A·Pᵀ is gathered from A through the order when a
// pass needs it (permutedRows), never stored.
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
	} else if err := validatePerm(perm, n); err != nil {
		return nil, err
	}
	inv := make([]int32, n)
	for newIdx, oldIdx := range perm {
		inv[oldIdx] = int32(newIdx)
	}
	rows := &permutedRows{a: a, perm: perm, inv: inv}

	parent := make([]int, n)
	ancestor := make([]int32, n)
	s := make([]int32, n)
	w := make([]int32, n)
	stack := make([]int32, n)
	for i := range w {
		w[i] = -1
	}

	// Symbolic pass, growing the elimination tree row by row as it goes:
	// count entries per column of L. Row k contributes one entry to every
	// column in its ereach pattern, plus its own diagonal.
	// Rows reach a column in ascending order, so the pass also measures
	// each column's last stretch of consecutive off-diagonal rows, which
	// becomes its run when it is at least minRun long. The factor's run
	// arrays hold the measurement meanwhile: runRow[i] is the last row to
	// reach column i (i itself at first), runPtr[i+1] the stretch's length.
	colCount := make([]int32, n)
	runPtr := make([]int32, n+1)
	runRow := make([]int32, n)
	for i := range runRow {
		runRow[i] = int32(i)
	}
	nnz := 0
	for k := 0; k < n; k++ {
		cols := rows.lower(k)
		etreeRow(k, cols, parent, ancestor)
		top := ereach(cols, k, parent, s, w, stack)
		for t := top; t < n; t++ {
			i := s[t]
			colCount[i]++
			if runRow[i] != int32(k-1) {
				runPtr[i+1] = 0
			}
			runPtr[i+1]++
			runRow[i] = int32(k)
		}
		colCount[k]++ // diagonal
		nnz += n - top + 1
	}
	if err := checkIndexable("nnz(L)", nnz); err != nil {
		return nil, err
	}
	// runRow becomes each run's first row (n for none), runPtr the runs'
	// offsets.
	for i := 0; i < n; i++ {
		var r int32
		r, runRow[i] = runOf(n, runPtr[i+1], runRow[i])
		runPtr[i+1] = runPtr[i] + r
	}
	runs := int(runPtr[n])
	f := &Factor{
		n:      n,
		colPtr: make([]int32, n+1),
		ent:    make([]entry, nnz-runs),
		runPtr: runPtr,
		runRow: runRow,
		run:    make([]float64, runs),
		perm:   make([]int32, n),
		inv:    inv,
		parent: parent,
	}
	colPtr, ent, run := f.colPtr, f.ent, f.run
	for newIdx, oldIdx := range perm {
		f.perm[newIdx] = int32(oldIdx)
	}

	// Numeric up-looking pass.
	for i := range w {
		w[i] = -1
	}
	// Dense accumulator for row k: every touched position is reset to zero
	// as its pattern row is consumed.
	x := make([]float64, n)
	colNext := make([]int32, n) // next free gathered slot per column
	// Diagonal entries go in first; colNext starts just past them.
	for j := 0; j < n; j++ {
		colPtr[j+1] = colPtr[j] + colCount[j] - (runPtr[j+1] - runPtr[j])
		colNext[j] = colPtr[j] + 1
	}
	for k := 0; k < n; k++ {
		// Row k in ascending column order: ereach's pattern order, and so
		// the order the accumulator is updated in, is the one a stored
		// permuted matrix gave, bit for bit.
		cols, d := rows.sorted(k, x)
		top := ereach(cols, k, parent, s, w, stack)
		for t := top; t < n; t++ {
			i := s[t]
			lo, hi := int(colPtr[i]), colNext[i]
			lki := x[i] / ent[lo].val // over the diagonal of column i
			x[i] = 0
			// Update the accumulator with column i's entries so far: the
			// gathered ones, then the rows of its run that k has passed.
			for _, e := range ent[lo+1 : hi] {
				x[e.row] -= e.val * lki
			}
			if r0 := int(runRow[i]); k >= r0 {
				// Row k is in the run, and so are the rows from r0 to k−1.
				vs := run[runPtr[i]:][:k-r0+1]
				done := vs[:k-r0]
				xs := x[r0:][:len(done)]
				for q, v := range done {
					xs[q] -= v * lki
				}
				vs[k-r0] = lki
			} else {
				ent[hi] = entry{int32(k), lki}
				colNext[i] = hi + 1
			}
			d -= lki * lki
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: pivot %d is %v", ErrNotSPD, k, d)
		}
		ent[colPtr[k]] = entry{int32(k), math.Sqrt(d)}
	}
	return f, nil
}

// runOf is the one rule that splits a column of an n-column factor into
// gathered entries and a run, for a factorization and for a pattern a
// rank-1 update grew alike: the column's last stretch of consecutive
// off-diagonal rows, stretch long and ending at row last, becomes its run
// when it is at least minRun long, and runOf returns the run's length and
// first row; a shorter one stays gathered (0, n).
func runOf(n int, stretch, last int32) (run, first int32) {
	if stretch < minRun {
		return 0, int32(n)
	}
	return stretch, last - stretch + 1
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
	f.forward(y)
	f.backward(y)
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

// forward solves L z = y in place on the permuted vector y (column by
// column). Each column is walked in two parts: its gathered entries
// through their rows, its run against a plain slice of y. Column and run
// bounds carry over from one column to the next. forward then backward is
// the whole solve of L Lᵀ w = y.
func (f *Factor) forward(y []float64) {
	n := f.n
	colPtr, ent, runPtr, runRow, run := f.colPtr[:n+1], f.ent, f.runPtr[:n+1], f.runRow[:n], f.run
	y = y[:n]
	p0, r0 := colPtr[0], runPtr[0]
	for j := 0; j < n; j++ {
		hi, r1 := colPtr[j+1], runPtr[j+1]
		yj := y[j] / ent[p0].val
		y[j] = yj
		for _, e := range ent[p0+1 : hi] {
			y[e.row] -= e.val * yj
		}
		if r0 < r1 {
			vs := run[r0:r1]
			ys := y[runRow[j]:][:len(vs)]
			for q, v := range vs {
				ys[q] -= v * yj
			}
		}
		p0, r0 = hi, r1
	}
}

// backward solves Lᵀ w = z in place on the permuted vector y. One
// dependent subtraction chain per column: latency-bound with or without
// the run (see the package doc).
func (f *Factor) backward(y []float64) {
	n := f.n
	colPtr, ent, runPtr, runRow, run := f.colPtr[:n+1], f.ent, f.runPtr[:n+1], f.runRow[:n], f.run
	y = y[:n]
	hi, r1 := colPtr[n], runPtr[n]
	for j := n - 1; j >= 0; j-- {
		p0, r0 := colPtr[j], runPtr[j]
		col := ent[p0:hi]
		s := y[j]
		for _, e := range col[1:] {
			s -= e.val * y[e.row]
		}
		if r0 < r1 {
			vs := run[r0:r1]
			ys := y[runRow[j]:][:len(vs)]
			for q, v := range vs {
				s -= v * ys[q]
			}
		}
		y[j] = s / col[0].val
		hi, r1 = p0, r0
	}
}

// mulLT computes y ← Lᵀ y in place on the permuted vector y. Row j of Lᵀ
// reads y[r] for r ≥ j only, so ascending j never reads an overwritten
// entry. Each product is rounded before it is summed (float64(…)), so no
// host fuses the accumulation into multiply-adds.
func (f *Factor) mulLT(y []float64) {
	n := f.n
	colPtr, ent, runPtr, runRow, run := f.colPtr[:n+1], f.ent, f.runPtr[:n+1], f.runRow[:n], f.run
	y = y[:n]
	p0, r0 := colPtr[0], runPtr[0]
	for j := 0; j < n; j++ {
		hi, r1 := colPtr[j+1], runPtr[j+1]
		s := float64(ent[p0].val * y[j])
		for _, e := range ent[p0+1 : hi] {
			s += float64(e.val * y[e.row])
		}
		if r0 < r1 {
			vs := run[r0:r1]
			ys := y[runRow[j]:][:len(vs)]
			for q, v := range vs {
				s += float64(v * ys[q])
			}
		}
		y[j] = s
		p0, r0 = hi, r1
	}
}

// LapSolver solves connected-graph Laplacian systems L_G x = b directly by
// grounding one vertex (deleting its row and column makes the matrix SPD),
// factoring the reduced matrix under an approximate minimum degree
// ordering (or a caller-supplied one), and restoring a zero-mean solution — the
// pseudoinverse action x = L_G⁺ b.
type LapSolver struct {
	n      int
	ground int
	factor *Factor
	upIdx  []int     // ApplyEdge scratch
	upVal  []float64 // ApplyEdge scratch
}

// NewLapSolver grounds the last vertex of g, orders with approximate
// minimum degree (MinDegree) and factors. A system whose dimension or
// ordering workspace (quotientLen) does not fit int32 is ErrTooLarge.
func NewLapSolver(g *graph.Graph) (*LapSolver, error) {
	return newLapSolver(g, nil)
}

// NewLapSolverOrdered factors with a caller-supplied elimination order
// of the reduced (n-1)-vertex system instead of minimum degree. No product
// path calls it: tests use it to factor under an order of their choosing,
// NewLapSolver's own for a same-order reference or one AMD would not pick.
// Skipping MinDegree saves about four fifths of a numeric pass: on the
// σ² = 100 sparsifier of a 192² grid, ≈ 13–14 ms of ordering against
// ≈ 16–18 ms of factorization (BenchmarkMinDegree, BenchmarkFactorNumeric,
// 2-core Xeon). The permutation is validated; a wrong length or a
// non-permutation is an error, and a single vertex's order is empty (nil
// included).
func NewLapSolverOrdered(g *graph.Graph, perm []int) (*LapSolver, error) {
	if err := validatePerm(perm, g.N()-1); err != nil {
		return nil, err
	}
	return newLapSolver(g, perm)
}

// validatePerm accepts perm as an elimination order of want indices
// (perm[new] = old): a permutation of 0..want-1, which for want = 0 is
// empty or nil.
func validatePerm(perm []int, want int) error {
	if perm == nil && want > 0 {
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
		// Every row stores its diagonal; the rest is scattered twice.
		if err := checkIndexable("ordering workspace", quotientLen(2*(red.NNZ()-red.Rows), red.Rows)); err != nil {
			return nil, err
		}
		perm = MinDegree(red)
	}
	f, err := FactorCSR(red, perm)
	if err != nil {
		return nil, err
	}
	return &LapSolver{n: n, ground: n - 1, factor: f}, nil
}

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
// goroutines at once; give each goroutine its own session instead, and
// take new sessions after an ApplyEdge or Grow that grows the pattern
// (see Factor.Session).
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

// Bytes estimates the heap the solver holds, priced at the factor's
// layout: 16-byte (row, value) entries and 8-byte run values, spare
// capacity for a growing pattern included; int32 column and run pointers,
// run rows and the order with its inverse; the elimination tree; and the
// solve and update buffers once they have been grown.
func (ls *LapSolver) Bytes() int64 {
	var b int64
	if f := ls.factor; f != nil {
		b += int64(cap(f.ent)) * 16
		b += int64(len(f.colPtr)+len(f.runPtr)+len(f.runRow)+len(f.perm)+len(f.inv)) * 4
		b += int64(cap(f.run)+len(f.parent)+len(f.work)+len(f.upWork)) * 8
	}
	return b
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
	f.forward(y)
	f.backward(y)
	for newIdx, oldIdx := range f.perm {
		x[oldIdx] = y[newIdx]
	}
	x[ls.ground] = 0
	vecmath.Deflate(x)
}

// The methods below expose the factor's own coordinates: a vector of
// length Dim() holding the grounded system's entries in the factor's
// elimination order; Coord says where a vertex sits in it. In them the
// pencil (L_G, L_P) becomes the symmetric matrix L⁻¹ L̂_G L⁻ᵀ (L̂_G is
// L_G grounded and permuted alike), which is how the certificate's
// Lanczos run applies it: Backward, L_G's edges relabeled by Coord,
// Forward. None of them allocates; the vector methods panic on a length
// mismatch, like Solve.

// Dim returns the dimension of the factored grounded system, n−1 (0 for
// a single vertex).
func (ls *LapSolver) Dim() int { return ls.n - 1 }

// Forward solves L z = y in place on y.
func (ls *LapSolver) Forward(y []float64) {
	if f := ls.coords(y, nil); f != nil {
		f.forward(y)
	}
}

// Backward solves Lᵀ w = y in place on y. Forward then Backward is
// Solve's sweep, bit for bit.
func (ls *LapSolver) Backward(y []float64) {
	if f := ls.coords(y, nil); f != nil {
		f.backward(y)
	}
}

// Coord returns vertex v's coordinate: its position in the factor's
// elimination order, or Dim() for the ground vertex, which the grounded
// system drops. A vector of length Dim()+1 whose last slot is held at
// zero is then a vertex vector grounded, in the factor's order.
func (ls *LapSolver) Coord(v int) int {
	if v == ls.ground {
		return ls.n - 1
	}
	return int(ls.factor.inv[v])
}

// MulLT sets z = Lᵀ x̂, where x̂ is the vertex vector x grounded (shifted
// so its ground entry is zero) and gathered into the factor's order. The
// shift is invisible to a Laplacian, so ‖z‖² = xᵀ L_P x: MulLT carries a
// vertex vector into the factor's coordinates with its L_P norm intact.
func (ls *LapSolver) MulLT(z, x []float64) {
	if f := ls.coords(z, x); f != nil {
		shift := x[ls.ground]
		for newIdx, oldIdx := range f.perm {
			z[newIdx] = x[oldIdx] - shift
		}
		f.mulLT(z)
	}
}

// coords panics unless y has length Dim() and x, when given, length n,
// and returns the factor: nil for a single vertex, whose coordinates are
// empty.
func (ls *LapSolver) coords(y, x []float64) *Factor {
	if len(y) != ls.n-1 || (x != nil && len(x) != ls.n) {
		panic("cholesky: LapSolver coordinate dimension mismatch")
	}
	return ls.factor
}
