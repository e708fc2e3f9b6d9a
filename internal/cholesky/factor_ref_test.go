package cholesky

import (
	"fmt"
	"math"
	"sort"

	"graphspar/internal/graph"
	"graphspar/internal/sparse"
	"graphspar/internal/testkit/matrix"
	"graphspar/internal/vecmath"
)

// The scalar kernels this package shipped before the run-aware int32
// ones — the numeric pass of FactorCSR, Factor.Solve, UpdateSparse and
// updown, LapSolver.Solve and ApplyEdge — kept verbatim (workspace
// pooling aside) as the oracle, over a stored permuted copy of A
// (matrix.Permute) with the elimination tree and row patterns read from
// it (etreeRef, ereachRef), where FactorCSR gathers each row through the
// order: every entry is read through rowIdx[p] and
// written through x[rowIdx[p]], indices are int, and the Laplacian solve
// stages through rhs/sol. The product kernels must reproduce every float
// of these bit for bit. UpdateSparse's pattern growth is written out here
// the plain way (grow): one row inserted into the parallel arrays at a
// time, no relayout.

type refFactor struct {
	n      int
	colPtr []int
	rowIdx []int
	val    []float64
	perm   []int
	inv    []int
	parent []int
	work   []float64
	upWork []float64
}

// etreeRef computes the elimination tree of the (full, symmetric) CSR
// matrix.
func etreeRef(a *sparse.CSR) []int {
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

// ereachRef writes the pattern of row k of L to s[top:n] in topological
// order and returns top: the union of etree paths from the entries of
// row k of A left of the diagonal up to k (w[v] == k marks v visited).
func ereachRef(a *sparse.CSR, k int, parent, s, w, stack []int) int {
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

func factorCSRRef(a *sparse.CSR, perm []int) (*refFactor, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: %dx%d", ErrNotSquare, a.Rows, a.Cols)
	}
	n := a.Rows
	if perm == nil {
		perm = make([]int, n)
		for i := range perm {
			perm[i] = i
		}
	}
	ap, err := matrix.Permute(a, perm)
	if err != nil {
		return nil, err
	}
	inv := make([]int, n)
	for newIdx, oldIdx := range perm {
		inv[oldIdx] = newIdx
	}

	parent := etreeRef(ap)
	s := make([]int, n)
	w := make([]int, n)
	stack := make([]int, n)
	for i := range w {
		w[i] = -1
	}

	colCount := make([]int, n)
	for k := 0; k < n; k++ {
		top := ereachRef(ap, k, parent, s, w, stack)
		for t := top; t < n; t++ {
			colCount[s[t]]++
		}
		colCount[k]++ // diagonal
	}
	colPtr := make([]int, n+1)
	for i := 0; i < n; i++ {
		colPtr[i+1] = colPtr[i] + colCount[i]
	}
	nnz := colPtr[n]
	f := &refFactor{
		n:      n,
		colPtr: colPtr,
		rowIdx: make([]int, nnz),
		val:    make([]float64, nnz),
		perm:   append([]int(nil), perm...),
		inv:    inv,
		parent: parent,
	}

	for i := range w {
		w[i] = -1
	}
	x := make([]float64, n)
	colNext := make([]int, n)
	for j := 0; j < n; j++ {
		colNext[j] = colPtr[j] + 1
	}
	for k := 0; k < n; k++ {
		top := ereachRef(ap, k, parent, s, w, stack)
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
			lii := f.val[f.colPtr[i]]
			lki := x[i] / lii
			x[i] = 0
			for p := f.colPtr[i] + 1; p < colNext[i]; p++ {
				x[f.rowIdx[p]] -= f.val[p] * lki
			}
			d -= lki * lki
			f.rowIdx[colNext[i]] = k
			f.val[colNext[i]] = lki
			colNext[i]++
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: pivot %d is %v", ErrNotSPD, k, d)
		}
		f.rowIdx[f.colPtr[k]] = k
		f.val[f.colPtr[k]] = math.Sqrt(d)
	}
	return f, nil
}

func (f *refFactor) Solve(x, b []float64) {
	if f.work == nil {
		f.work = make([]float64, f.n)
	}
	y := f.work
	for newIdx, oldIdx := range f.perm {
		y[newIdx] = b[oldIdx]
	}
	f.forward(y)
	f.backward(y)
	for newIdx, oldIdx := range f.perm {
		x[oldIdx] = y[newIdx]
	}
}

// forward and backward are the two halves of the solve's sweep.
func (f *refFactor) forward(y []float64) {
	for j := 0; j < f.n; j++ {
		p0 := f.colPtr[j]
		y[j] /= f.val[p0]
		yj := y[j]
		for p := p0 + 1; p < f.colPtr[j+1]; p++ {
			y[f.rowIdx[p]] -= f.val[p] * yj
		}
	}
}

func (f *refFactor) backward(y []float64) {
	for j := f.n - 1; j >= 0; j-- {
		p0 := f.colPtr[j]
		s := y[j]
		for p := p0 + 1; p < f.colPtr[j+1]; p++ {
			s -= f.val[p] * y[f.rowIdx[p]]
		}
		y[j] = s / f.val[p0]
	}
}

func (f *refFactor) UpdateSparse(idx []int, val []float64, sign int) error {
	if len(idx) == 0 {
		return nil
	}
	f0 := f.n
	for _, i := range idx {
		if p := f.inv[i]; p < f0 {
			f0 = p
		}
	}
	for _, i := range idx {
		if p := f.inv[i]; !f.has(f0, p) {
			f.grow(f0, []int{p})
		}
	}
	if f.upWork == nil {
		f.upWork = make([]float64, f.n)
	}
	w := f.upWork
	for k, i := range idx {
		w[f.inv[i]] += val[k]
	}
	if err := f.updown(w, f0, sign); err != nil {
		clear(w)
		return err
	}
	return nil
}

// has reports whether row r ≥ j is in column j's pattern.
func (f *refFactor) has(j, r int) bool {
	rows := f.rowIdx[f.colPtr[j]:f.colPtr[j+1]]
	at := sort.SearchInts(rows, r)
	return at < len(rows) && rows[at] == r
}

// grow is the symbolic update without shortcuts: column j takes the rows
// it lacks, at value zero, by inserting into the parallel arrays; its
// parent is its smallest off-diagonal row; the parent takes every row of
// j above it that it lacks; repeat until a column gains nothing.
func (f *refFactor) grow(j int, rows []int) {
	for len(rows) > 0 {
		for _, r := range rows {
			lo, hi := f.colPtr[j], f.colPtr[j+1]
			at := lo + sort.SearchInts(f.rowIdx[lo:hi], r)
			f.rowIdx = append(f.rowIdx[:at], append([]int{r}, f.rowIdx[at:]...)...)
			f.val = append(f.val[:at], append([]float64{0}, f.val[at:]...)...)
			for c := j + 1; c <= f.n; c++ {
				f.colPtr[c]++
			}
		}
		k := f.rowIdx[f.colPtr[j]+1]
		f.parent[j] = k
		rows = rows[:0:0]
		for p := f.colPtr[j] + 2; p < f.colPtr[j+1]; p++ {
			if r := f.rowIdx[p]; !f.has(k, r) {
				rows = append(rows, r)
			}
		}
		j = k
	}
}

func (f *refFactor) updown(w []float64, f0 int, sigma int) error {
	beta := 1.0
	sgn := float64(sigma)
	for j := f0; j != -1; j = f.parent[j] {
		p0 := f.colPtr[j]
		alpha := w[j] / f.val[p0]
		beta2 := beta*beta + sgn*alpha*alpha
		if beta2 <= 0 || math.IsNaN(beta2) {
			return fmt.Errorf("%w: rank-1 downdate annihilates pivot %d", ErrNotSPD, j)
		}
		beta2 = math.Sqrt(beta2)
		var delta, gamma float64
		if sigma > 0 {
			delta = beta / beta2
			gamma = alpha / (beta2 * beta)
			f.val[p0] = delta*f.val[p0] + gamma*w[j]
		} else {
			delta = beta2 / beta
			gamma = -alpha / (beta2 * beta)
			f.val[p0] = delta * f.val[p0]
		}
		w[j] = 0
		if sigma > 0 {
			for p := p0 + 1; p < f.colPtr[j+1]; p++ {
				i := f.rowIdx[p]
				w1 := w[i]
				w[i] = w1 - alpha*f.val[p]
				f.val[p] = delta*f.val[p] + gamma*w1
			}
		} else {
			for p := p0 + 1; p < f.colPtr[j+1]; p++ {
				i := f.rowIdx[p]
				w2 := w[i] - alpha*f.val[p]
				w[i] = w2
				f.val[p] = delta*f.val[p] + gamma*w2
			}
		}
		beta = beta2
	}
	return nil
}

type refLapSolver struct {
	n      int
	ground int
	factor *refFactor
	rhs    []float64
	sol    []float64
	upIdx  []int
	upVal  []float64
}

// newRefLapSolver factors g's grounded Laplacian under perm with the
// scalar kernels.
func newRefLapSolver(g *graph.Graph, perm []int) (*refLapSolver, error) {
	n := g.N()
	f, err := factorCSRRef(reducedLaplacianCSR(g), perm)
	if err != nil {
		return nil, err
	}
	return &refLapSolver{
		n:      n,
		ground: n - 1,
		factor: f,
		rhs:    make([]float64, n-1),
		sol:    make([]float64, n-1),
	}, nil
}

func (ls *refLapSolver) Solve(x, b []float64) {
	mean := vecmath.Mean(b)
	for i := 0; i < ls.n-1; i++ {
		ls.rhs[i] = b[i] - mean
	}
	ls.factor.Solve(ls.sol, ls.rhs)
	copy(x[:ls.n-1], ls.sol)
	x[ls.ground] = 0
	vecmath.Deflate(x)
}

func (ls *refLapSolver) ApplyEdge(u, v int, dw float64) error {
	sign := 1
	if dw < 0 {
		sign = -1
	}
	s := math.Sqrt(math.Abs(dw))
	ls.upIdx = ls.upIdx[:0]
	ls.upVal = ls.upVal[:0]
	switch {
	case u == ls.ground:
		ls.upIdx = append(ls.upIdx, v)
		ls.upVal = append(ls.upVal, s)
	case v == ls.ground:
		ls.upIdx = append(ls.upIdx, u)
		ls.upVal = append(ls.upVal, s)
	default:
		ls.upIdx = append(ls.upIdx, u, v)
		ls.upVal = append(ls.upVal, s, -s)
	}
	return ls.factor.UpdateSparse(ls.upIdx, ls.upVal, sign)
}
