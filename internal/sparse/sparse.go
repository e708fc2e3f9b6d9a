// Package sparse implements the compressed sparse row (CSR) matrices and
// coordinate (COO) builders that back every Laplacian operation in
// graphspar: symmetric matrix–vector products for power iterations and CG,
// Laplacian quadratic forms (eq. 6 of the paper), and structural
// transforms (transpose, permutation, extraction).
//
// Matrices are real and, for the graph-Laplacian use cases, symmetric; the
// package stores general CSR but provides symmetry-aware helpers.
package sparse

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrShape reports an operation on incompatible dimensions.
var ErrShape = errors.New("sparse: incompatible shape")

// Coord is a single (row, col, value) entry in a COO builder.
type Coord struct {
	Row, Col int
	Val      float64
}

// Builder accumulates COO entries and compiles them into a CSR matrix.
// Duplicate (row, col) entries are summed, matching MatrixMarket semantics.
type Builder struct {
	rows, cols int
	entries    []Coord
}

// NewBuilder returns a Builder for an rows×cols matrix.
func NewBuilder(rows, cols int) *Builder {
	if rows < 0 || cols < 0 {
		panic("sparse: negative dimension")
	}
	return &Builder{rows: rows, cols: cols}
}

// Add appends entry (i, j, v). Out-of-range indices panic: entries are
// produced by internal loops where a bad index is a bug.
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: entry (%d,%d) outside %dx%d", i, j, b.rows, b.cols))
	}
	b.entries = append(b.entries, Coord{i, j, v})
}

// Len returns the number of accumulated (pre-deduplication) entries.
func (b *Builder) Len() int { return len(b.entries) }

// Build compiles the accumulated entries into a CSR matrix, summing
// duplicates and dropping exact zeros that result.
func (b *Builder) Build() *CSR {
	sort.Slice(b.entries, func(p, q int) bool {
		if b.entries[p].Row != b.entries[q].Row {
			return b.entries[p].Row < b.entries[q].Row
		}
		return b.entries[p].Col < b.entries[q].Col
	})
	// Sum duplicates in place.
	out := b.entries[:0]
	for _, e := range b.entries {
		n := len(out)
		if n > 0 && out[n-1].Row == e.Row && out[n-1].Col == e.Col {
			out[n-1].Val += e.Val
		} else {
			out = append(out, e)
		}
	}
	// Drop zeros produced by cancellation.
	kept := out[:0]
	for _, e := range out {
		if e.Val != 0 {
			kept = append(kept, e)
		}
	}
	m := &CSR{
		Rows:   b.rows,
		Cols:   b.cols,
		RowPtr: make([]int, b.rows+1),
		ColIdx: make([]int, len(kept)),
		Val:    make([]float64, len(kept)),
	}
	for i, e := range kept {
		m.RowPtr[e.Row+1]++
		m.ColIdx[i] = e.Col
		m.Val[i] = e.Val
	}
	for i := 0; i < b.rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// CSR is a compressed sparse row matrix. Column indices within each row are
// strictly increasing (guaranteed by Builder and by all package transforms).
type CSR struct {
	Rows, Cols int
	RowPtr     []int     // length Rows+1
	ColIdx     []int     // length NNZ
	Val        []float64 // length NNZ
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// At returns the (i, j) entry (0 if not stored). Binary search per row.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("sparse: At(%d,%d) outside %dx%d", i, j, m.Rows, m.Cols))
	}
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	k := lo + sort.SearchInts(m.ColIdx[lo:hi], j)
	if k < hi && m.ColIdx[k] == j {
		return m.Val[k]
	}
	return 0
}

// MulVec computes y = M x. y must have length Rows and x length Cols.
func (m *CSR) MulVec(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("sparse: MulVec dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
}

// Transpose returns Mᵀ as a new CSR.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int, m.Cols+1),
		ColIdx: make([]int, m.NNZ()),
		Val:    make([]float64, m.NNZ()),
	}
	for _, j := range m.ColIdx {
		t.RowPtr[j+1]++
	}
	for j := 0; j < m.Cols; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	next := make([]int, m.Cols)
	copy(next, t.RowPtr[:m.Cols])
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			p := next[j]
			t.ColIdx[p] = i
			t.Val[p] = m.Val[k]
			next[j]++
		}
	}
	return t
}

// IsSymmetric reports whether M equals Mᵀ within tol (absolute, entrywise).
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	t := m.Transpose()
	if t.NNZ() != m.NNZ() {
		// Pattern can still match with explicit zeros; fall through to
		// value comparison via At for the union pattern.
		return m.symEqualSlow(tol)
	}
	for i := range m.Val {
		if m.ColIdx[i] != t.ColIdx[i] || math.Abs(m.Val[i]-t.Val[i]) > tol {
			return m.symEqualSlow(tol)
		}
	}
	for i := 0; i <= m.Rows; i++ {
		if m.RowPtr[i] != t.RowPtr[i] {
			return m.symEqualSlow(tol)
		}
	}
	return true
}

func (m *CSR) symEqualSlow(tol float64) bool {
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			if math.Abs(m.Val[k]-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Scale returns alpha*M as a new matrix.
func (m *CSR) Scale(alpha float64) *CSR {
	out := m.Clone()
	for i := range out.Val {
		out.Val[i] *= alpha
	}
	return out
}

// Clone returns a deep copy of M.
func (m *CSR) Clone() *CSR {
	out := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Val:    append([]float64(nil), m.Val...),
	}
	return out
}

// Add returns A + B. Both must share dimensions.
func Add(a, b *CSR) (*CSR, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("%w: %dx%d + %dx%d", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	bld := NewBuilder(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			bld.Add(i, a.ColIdx[k], a.Val[k])
		}
		for k := b.RowPtr[i]; k < b.RowPtr[i+1]; k++ {
			bld.Add(i, b.ColIdx[k], b.Val[k])
		}
	}
	return bld.Build(), nil
}

// Sub returns A - B.
func Sub(a, b *CSR) (*CSR, error) {
	nb := b.Scale(-1)
	return Add(a, nb)
}

// Mul returns the product A·B (classic row-by-row sparse GEMM with a dense
// accumulator per row).
func Mul(a, b *CSR) (*CSR, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := &CSR{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int, a.Rows+1)}
	acc := make([]float64, b.Cols)
	mark := make([]int, b.Cols)
	for i := range mark {
		mark[i] = -1
	}
	var cols []int
	for i := 0; i < a.Rows; i++ {
		cols = cols[:0]
		for ka := a.RowPtr[i]; ka < a.RowPtr[i+1]; ka++ {
			j := a.ColIdx[ka]
			av := a.Val[ka]
			for kb := b.RowPtr[j]; kb < b.RowPtr[j+1]; kb++ {
				c := b.ColIdx[kb]
				if mark[c] != i {
					mark[c] = i
					acc[c] = 0
					cols = append(cols, c)
				}
				acc[c] += av * b.Val[kb]
			}
		}
		sort.Ints(cols)
		for _, c := range cols {
			if acc[c] != 0 {
				out.ColIdx = append(out.ColIdx, c)
				out.Val = append(out.Val, acc[c])
			}
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out, nil
}

// Permute returns P·M·Pᵀ for the symmetric permutation given by perm, where
// perm[new] = old (i.e. row/col new of the result is row/col perm[new] of M).
// Stored exact zeros are dropped. A perm that is not a permutation of
// 0..Rows-1 is an error.
//
// The entries are counting-sorted twice — bucketed by new column, then
// scattered in bucket order to their new rows, which leaves every row's
// columns ascending — so the cost is O(nnz + n) with no comparison sort.
func (m *CSR) Permute(perm []int) (*CSR, error) {
	if m.Rows != m.Cols || len(perm) != m.Rows {
		return nil, fmt.Errorf("%w: permute %dx%d with perm of length %d", ErrShape, m.Rows, m.Cols, len(perm))
	}
	n := m.Rows
	inv := make([]int, n)
	for i := range inv {
		inv[i] = -1
	}
	for newIdx, oldIdx := range perm {
		if oldIdx < 0 || oldIdx >= n {
			return nil, fmt.Errorf("sparse: permutation entry %d out of range", oldIdx)
		}
		if inv[oldIdx] != -1 {
			return nil, fmt.Errorf("sparse: permutation entry %d repeated", oldIdx)
		}
		inv[oldIdx] = newIdx
	}

	// Count the kept entries per new row (into the result's RowPtr) and
	// per new column (into the bucket cursors).
	out := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	bucket := make([]int, n+1)
	for i := 0; i < n; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.Val[k] != 0 {
				out.RowPtr[inv[i]+1]++
				bucket[inv[m.ColIdx[k]]+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
		bucket[i+1] += bucket[i]
	}
	nnz := bucket[n]
	out.ColIdx = make([]int, nnz)
	out.Val = make([]float64, nnz)

	// Pass 1: bucket by new column. Afterwards bucket[c] is the end of
	// column c's entries.
	row := make([]int, nnz)
	val := make([]float64, nnz)
	for i := 0; i < n; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.Val[k] == 0 {
				continue
			}
			c := inv[m.ColIdx[k]]
			row[bucket[c]], val[bucket[c]] = inv[i], m.Val[k]
			bucket[c]++
		}
	}
	// Pass 2: walk the buckets in column order and append each entry to
	// its new row. inv is done; it becomes the per-row write cursors.
	next := inv
	copy(next, out.RowPtr[:n])
	p := 0
	for c := 0; c < n; c++ {
		for ; p < bucket[c]; p++ {
			q := next[row[p]]
			out.ColIdx[q], out.Val[q] = c, val[p]
			next[row[p]]++
		}
	}
	return out, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *CSR {
	m := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1), ColIdx: make([]int, n), Val: make([]float64, n)}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = i + 1
		m.ColIdx[i] = i
		m.Val[i] = 1
	}
	return m
}

// Dense expands M into a dense row-major matrix; intended for tests and
// tiny reference computations only.
func (m *CSR) Dense() [][]float64 {
	d := make([][]float64, m.Rows)
	for i := range d {
		d[i] = make([]float64, m.Cols)
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d[i][m.ColIdx[k]] = m.Val[k]
		}
	}
	return d
}

// FrobeniusDiff returns ||A - B||_F; shapes must match.
func FrobeniusDiff(a, b *CSR) (float64, error) {
	d, err := Sub(a, b)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, v := range d.Val {
		s += v * v
	}
	return math.Sqrt(s), nil
}
