package cholesky

import "sync"

// Workspace pools the per-factorization scratch a solver build otherwise
// allocates fresh on every call: the reduced Laplacian's assembly
// cursors, FactorCSR's ereach marker/stack arrays and symbolic column
// counts, and the dense row accumulator. The dynamic
// maintainer and the sparsifier's inner solver refactor the same-sized
// reduced Laplacian over and over; drawing scratch from a Workspace
// makes those rebuilds allocation-free apart from the factor itself.
//
// A Workspace is safe for concurrent use (it is a pair of sync.Pools)
// and a nil *Workspace is valid everywhere one is accepted — every
// getter falls back to a fresh allocation, reproducing the un-pooled
// behavior exactly. Pooled slices come back with stale contents;
// callers must initialize whatever they read before writing (FactorCSRWS
// zeroes the accumulator and column counts explicitly, and fills the
// marker array with -1 as the algorithm already required).
type Workspace struct {
	ints sync.Pool // *[]int
	vecs sync.Pool // *[]float64
}

// NewWorkspace returns an empty workspace. The zero value is also ready
// to use; the constructor exists so callers outside the package can hold
// one behind a pointer without importing sync themselves.
func NewWorkspace() *Workspace { return &Workspace{} }

// getInts returns a length-n int slice with arbitrary contents.
func (ws *Workspace) getInts(n int) []int {
	if ws != nil {
		if p, _ := ws.ints.Get().(*[]int); p != nil && cap(*p) >= n {
			return (*p)[:n]
		}
	}
	return make([]int, n)
}

// putInts returns a slice obtained from getInts to the pool.
func (ws *Workspace) putInts(s []int) {
	if ws == nil || cap(s) == 0 {
		return
	}
	ws.ints.Put(&s)
}

// getVec returns a length-n float64 slice with arbitrary contents.
func (ws *Workspace) getVec(n int) []float64 {
	if ws != nil {
		if p, _ := ws.vecs.Get().(*[]float64); p != nil && cap(*p) >= n {
			return (*p)[:n]
		}
	}
	return make([]float64, n)
}

// putVec returns a slice obtained from getVec to the pool.
func (ws *Workspace) putVec(s []float64) {
	if ws == nil || cap(s) == 0 {
		return
	}
	ws.vecs.Put(&s)
}
