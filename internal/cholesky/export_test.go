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
	if len(f.val) == 0 {
		return 0
	}
	in := 0
	for j := 0; j < f.n; j++ {
		in += int(f.colPtr[j+1] - f.runAt[j])
	}
	return float64(in) / float64(len(f.val))
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
