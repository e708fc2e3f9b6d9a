// Package gsp provides the graph-signal-processing utilities that motivate
// the paper's filtering view (§3.4): spectral drawings (Fig. 1) and
// Tikhonov low-pass filtering — including filtering through a sparsifier,
// which is the "spectral sparsifier as a low-pass graph filter"
// demonstration.
package gsp

import (
	"errors"
	"fmt"
	"math"

	"graphspar/internal/eig"
	"graphspar/internal/graph"
	"graphspar/internal/pcg"
	"graphspar/internal/vecmath"
)

// SpectralDrawing returns 2D coordinates for every vertex using the two
// eigenvectors u₂, u₃ of the Laplacian associated with the smallest
// nonzero eigenvalues — Koren's spectral drawing, which Fig. 1 uses to
// show that a sparsifier "looks like" its original.
func SpectralDrawing(g *graph.Graph, solver eig.LapSolver, seed uint64) ([][2]float64, error) {
	if g.N() < 3 {
		return nil, errors.New("gsp: drawing needs at least 3 vertices")
	}
	iters := 60
	if iters > g.N()-1 {
		iters = g.N() - 1
	}
	_, vecs, err := eig.SmallestPairs(g, 2, solver, iters, seed)
	if err != nil {
		return nil, fmt.Errorf("gsp: eigenvectors: %w", err)
	}
	coords := make([][2]float64, g.N())
	for i := range coords {
		coords[i] = [2]float64{vecs[0][i], vecs[1][i]}
	}
	return coords, nil
}

// TikhonovFilter low-passes the signal s by solving (I + αL) x = s — the
// classic graph denoiser whose frequency response 1/(1+αλ) attenuates
// high-frequency components. The system is SPD, solved by CG. Larger α
// means stronger smoothing.
func TikhonovFilter(g *graph.Graph, s []float64, alpha float64, tol float64) ([]float64, error) {
	n := g.N()
	if len(s) != n {
		return nil, errors.New("gsp: signal length mismatch")
	}
	if alpha <= 0 {
		return nil, errors.New("gsp: alpha must be positive")
	}
	if tol <= 0 {
		tol = 1e-10
	}
	op := tikhonovOp{g: g, alpha: alpha, tmp: make([]float64, n)}
	x := make([]float64, n)
	b := append([]float64(nil), s...)
	if _, err := pcg.Solve(op, nil, x, b, pcg.Options{Tol: tol, MaxIter: 20 * n}); err != nil {
		return nil, fmt.Errorf("gsp: Tikhonov solve: %w", err)
	}
	return x, nil
}

type tikhonovOp struct {
	g     *graph.Graph
	alpha float64
	tmp   []float64
}

func (o tikhonovOp) Apply(y, x []float64) {
	o.g.LapMulVec(o.tmp, x)
	for i := range y {
		y[i] = x[i] + o.alpha*o.tmp[i]
	}
}

func (o tikhonovOp) Dim() int { return o.g.N() }

// FilterAgreement filters the same signal through G and through its
// sparsifier P and returns the relative L2 difference of the outputs —
// small values certify that P acts as a faithful low-pass proxy for G
// (the §3.4 claim, quantified).
func FilterAgreement(g, p *graph.Graph, s []float64, alpha float64) (float64, error) {
	if g.N() != p.N() {
		return 0, errors.New("gsp: graphs differ in size")
	}
	xg, err := TikhonovFilter(g, s, alpha, 1e-10)
	if err != nil {
		return 0, err
	}
	xp, err := TikhonovFilter(p, s, alpha, 1e-10)
	if err != nil {
		return 0, err
	}
	diff := make([]float64, len(xg))
	vecmath.Sub(diff, xg, xp)
	ng := vecmath.Norm2(xg)
	if ng == 0 {
		return 0, errors.New("gsp: zero filtered signal")
	}
	return vecmath.Norm2(diff) / ng, nil
}

// DrawingCorrelation measures how similar two spectral drawings are:
// the maximum over the two axes of the absolute Pearson correlation,
// maximized over axis swap (eigenvectors can permute/flip between nearly
// isospectral graphs). 1 means identical layouts up to sign/swap.
func DrawingCorrelation(a, b [][2]float64) (float64, error) {
	if len(a) != len(b) || len(a) == 0 {
		return 0, errors.New("gsp: drawings differ in size")
	}
	col := func(d [][2]float64, i int) []float64 {
		out := make([]float64, len(d))
		for j := range d {
			out[j] = d[j][i]
		}
		return out
	}
	corr := func(x, y []float64) float64 {
		mx, my := vecmath.Mean(x), vecmath.Mean(y)
		var sxy, sxx, syy float64
		for i := range x {
			dx, dy := x[i]-mx, y[i]-my
			sxy += dx * dy
			sxx += dx * dx
			syy += dy * dy
		}
		if sxx == 0 || syy == 0 {
			return 0
		}
		return math.Abs(sxy / math.Sqrt(sxx*syy))
	}
	a0, a1 := col(a, 0), col(a, 1)
	b0, b1 := col(b, 0), col(b, 1)
	straight := (corr(a0, b0) + corr(a1, b1)) / 2
	swapped := (corr(a0, b1) + corr(a1, b0)) / 2
	if swapped > straight {
		return swapped, nil
	}
	return straight, nil
}
