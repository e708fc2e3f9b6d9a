package cholesky

import "fmt"

// Test-only exports for the external differential tests and benchmarks,
// which sparsify through internal/core and so cannot live in this package.
var (
	MinDegreeRef        = minDegreeRef
	ReducedLaplacianCSR = reducedLaplacianCSR
	CheckKernels        = checkKernels
)

// RunShare reports the fraction of nnz(L) the kernels walk as slices.
func (f *Factor) RunShare() float64 {
	if f.NNZ() == 0 {
		return 0
	}
	return float64(len(f.run)) / float64(f.NNZ())
}

// Pattern lists each factor column's rows, diagonal first, in the
// factor's coordinates.
func (ls *LapSolver) Pattern() [][]int32 {
	f := ls.factor
	cols := make([][]int32, f.n)
	for j := range cols {
		for _, e := range f.ent[f.colPtr[j]:f.colPtr[j+1]] {
			cols[j] = append(cols[j], e.row)
		}
		for r := f.runRow[j]; r < f.runRow[j]+f.runPtr[j+1]-f.runPtr[j]; r++ {
			cols[j] = append(cols[j], r)
		}
	}
	return cols
}

// Order is the elimination order the solver factored with, perm[new] =
// old over the reduced system, read back through Coord.
func (ls *LapSolver) Order() []int {
	perm := make([]int, ls.Dim())
	for v := range perm {
		perm[ls.Coord(v)] = v
	}
	return perm
}

// RunShare is Factor.RunShare of the solver's factor.
func (ls *LapSolver) RunShare() float64 { return ls.factor.RunShare() }

// Update is UpdateSparse for a dense vector — the entry point the update
// property suite drives; no product code holds a dense update vector.
func (f *Factor) Update(v []float64, sign int) error {
	if len(v) != f.n {
		panic(fmt.Sprintf("cholesky: Update dimension %d, want %d", len(v), f.n))
	}
	var idx []int
	var val []float64
	for i, x := range v {
		if x != 0 {
			idx = append(idx, i)
			val = append(val, x)
		}
	}
	return f.UpdateSparse(idx, val, sign)
}
