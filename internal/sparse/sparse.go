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
