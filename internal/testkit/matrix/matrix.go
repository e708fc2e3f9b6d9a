// Package matrix is the matrix-level test support that tests share: dense
// views, products, differences and symmetric permutations of CSR
// matrices, a Jacobi eigensolver for small dense symmetric matrices, and
// seeded random permutations. No binary links any of it. It imports only
// sparse and vecmath, so even graph's in-package tests can use it;
// sparse's own tests reach it from an external test package.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"graphspar/internal/sparse"
	"graphspar/internal/vecmath"
)

// Perm returns a random permutation of [0, n) drawn from rng
// (Fisher–Yates).
func Perm(rng *vecmath.RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Permute returns P·M·Pᵀ for the symmetric permutation given by perm, where
// perm[new] = old (i.e. row/col new of the result is row/col perm[new] of M).
// Stored exact zeros are dropped. A perm that is not a permutation of
// 0..Rows-1 is an error. cholesky's reference factorization factors this
// copy; the product gathers each permuted row from M as it needs it.
//
// The entries are counting-sorted twice — bucketed by new column, then
// scattered in bucket order to their new rows, which leaves every row's
// columns ascending — so the cost is O(nnz + n) with no comparison sort.
func Permute(m *sparse.CSR, perm []int) (*sparse.CSR, error) {
	if m.Rows != m.Cols || len(perm) != m.Rows {
		return nil, fmt.Errorf("%w: permute %dx%d with perm of length %d", sparse.ErrShape, m.Rows, m.Cols, len(perm))
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
	out := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
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

// Dense expands m into a dense row-major matrix.
func Dense(m *sparse.CSR) [][]float64 {
	d := make([][]float64, m.Rows)
	for i := range d {
		d[i] = make([]float64, m.Cols)
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d[i][m.ColIdx[k]] = m.Val[k]
		}
	}
	return d
}

// Mul returns the product A·B (row-by-row sparse GEMM with a dense
// accumulator per row).
func Mul(a, b *sparse.CSR) (*sparse.CSR, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", sparse.ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := &sparse.CSR{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int, a.Rows+1)}
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

// FrobeniusDiff returns ||A - B||_F; shapes must match.
func FrobeniusDiff(a, b *sparse.CSR) (float64, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return 0, fmt.Errorf("%w: %dx%d - %dx%d", sparse.ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	bld := sparse.NewBuilder(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			bld.Add(i, a.ColIdx[k], a.Val[k])
		}
		for k := b.RowPtr[i]; k < b.RowPtr[i+1]; k++ {
			bld.Add(i, b.ColIdx[k], -b.Val[k])
		}
	}
	var s float64
	for _, v := range bld.Build().Val {
		s += v * v
	}
	return math.Sqrt(s), nil
}

// errNoConverge is JacobiEigen's error when its sweeps stall.
var errNoConverge = errors.New("matrix: Jacobi iteration did not converge")

// JacobiEigen computes all eigenvalues and eigenvectors of a small dense
// symmetric matrix by cyclic Jacobi rotations. a is overwritten. Returns
// eigenvalues ascending and the matrix of eigenvectors (columns).
func JacobiEigen(a [][]float64) ([]float64, [][]float64, error) {
	n := len(a)
	v := make([][]float64, n)
	for i := range v {
		v[i] = make([]float64, n)
		v[i][i] = 1
	}
	for sweep := 0; sweep < 100; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a[i][j] * a[i][j]
			}
		}
		if off < 1e-24 {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = a[i][i]
			}
			// Sort ascending with eigenvector columns.
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			for i := 1; i < n; i++ {
				for j := i; j > 0 && vals[idx[j-1]] > vals[idx[j]]; j-- {
					idx[j-1], idx[j] = idx[j], idx[j-1]
				}
			}
			sortedVals := make([]float64, n)
			sortedVecs := make([][]float64, n)
			for i := range sortedVecs {
				sortedVecs[i] = make([]float64, n)
			}
			for newJ, oldJ := range idx {
				sortedVals[newJ] = vals[oldJ]
				for i := 0; i < n; i++ {
					sortedVecs[i][newJ] = v[i][oldJ]
				}
			}
			return sortedVals, sortedVecs, nil
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(a[p][q]) < 1e-300 {
					continue
				}
				theta := (a[q][q] - a[p][p]) / (2 * a[p][q])
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					akp, akq := a[k][p], a[k][q]
					a[k][p] = c*akp - s*akq
					a[k][q] = s*akp + c*akq
				}
				for k := 0; k < n; k++ {
					apk, aqk := a[p][k], a[q][k]
					a[p][k] = c*apk - s*aqk
					a[q][k] = s*apk + c*aqk
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v[k][p], v[k][q]
					v[k][p] = c*vkp - s*vkq
					v[k][q] = s*vkp + c*vkq
				}
			}
		}
	}
	return nil, nil, errNoConverge
}
