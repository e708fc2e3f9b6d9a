// Package vecmath provides the dense vector kernels used throughout
// graphspar: BLAS-1 style operations, norms, orthogonalization against the
// constant vector (the null space of connected-graph Laplacians), and
// deterministic random-vector generation for the randomized embedding and
// estimation routines of the paper.
//
// All functions are allocation-free unless documented otherwise, so the
// inner loops of power iterations and PCG can run without GC pressure.
package vecmath

import (
	"fmt"
	"math"
)

// Dot returns the inner product of x and y.
// It panics if the lengths differ; vector-length mismatches are programming
// errors, not runtime conditions.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vecmath: Dot length mismatch %d != %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	// Scaled accumulation avoids overflow for extreme magnitudes.
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vecmath: Axpy length mismatch %d != %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies every entry of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Zero sets every entry of x to 0.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Sum returns the sum of the entries of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of x (0 for empty x).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Sum(x) / float64(len(x))
}

// Deflate removes the component of x along the all-ones vector in place:
// x <- x - mean(x)·1. Laplacians of connected graphs have null space
// span{1}, so every solver and eigen routine in graphspar deflates iterates
// with this function.
func Deflate(x []float64) {
	m := Mean(x)
	for i := range x {
		x[i] -= m
	}
}

// Normalize scales x to unit Euclidean norm in place and returns the
// original norm. If x is (numerically) zero it is left unchanged and 0 is
// returned.
func Normalize(x []float64) float64 {
	n := Norm2(x)
	if n == 0 {
		return 0
	}
	Scale(1/n, x)
	return n
}

// Sub computes dst = x - y.
func Sub(dst, x, y []float64) {
	if len(dst) != len(x) || len(x) != len(y) {
		panic("vecmath: Sub length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
}

// RelResidual returns ||r|| / ||b||, treating a zero b as having norm 1 so
// the caller can still interpret the result as an absolute residual.
func RelResidual(r, b []float64) float64 {
	nb := Norm2(b)
	if nb == 0 {
		nb = 1
	}
	return Norm2(r) / nb
}
