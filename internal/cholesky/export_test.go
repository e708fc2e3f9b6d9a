package cholesky

// Test-only exports for the external differential tests and benchmarks,
// which sparsify through internal/core and so cannot live in this package.
var (
	MinDegreeRef        = minDegreeRef
	ReducedLaplacianCSR = reducedLaplacianCSR
)
