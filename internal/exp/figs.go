package exp

import (
	"errors"
	"fmt"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/gsp"
)

// Fig1Result holds the spectral drawings of the airfoil-proxy graph and
// its sparsifier (Fig. 1) plus their layout correlation.
type Fig1Result struct {
	N, MOrig, MSparse int
	SigmaSqAchieved   float64
	Original          [][2]float64
	Sparsified        [][2]float64
	Correlation       float64
}

// Fig1 reproduces the two spectrally-similar airfoil drawings.
func Fig1(scale float64, seed uint64) (*Fig1Result, error) {
	rings := scaledDim(14, scale)
	per := scaledDim(44, scale)
	g, _, err := gen.Annulus(rings, per, gen.UnitWeights, seed)
	if err != nil {
		return nil, err
	}
	res, err := core.Sparsify(g, core.Options{SigmaSq: 20, Seed: seed})
	if err != nil && !errors.Is(err, core.ErrNoTarget) {
		return nil, err
	}
	lsG, err := cholesky.NewLapSolver(g)
	if err != nil {
		return nil, err
	}
	lsP, err := cholesky.NewLapSolver(res.Sparsifier)
	if err != nil {
		return nil, err
	}
	dg, err := gsp.SpectralDrawing(g, lsG, seed+1)
	if err != nil {
		return nil, err
	}
	dp, err := gsp.SpectralDrawing(res.Sparsifier, lsP, seed+1)
	if err != nil {
		return nil, err
	}
	corr, err := gsp.DrawingCorrelation(dg, dp)
	if err != nil {
		return nil, err
	}
	return &Fig1Result{
		N: g.N(), MOrig: g.M(), MSparse: res.Sparsifier.M(),
		SigmaSqAchieved: res.SigmaSqAchieved,
		Original:        dg, Sparsified: dp, Correlation: corr,
	}, nil
}

// Fig2Series is one heat-spectrum curve (one test case of Fig. 2).
type Fig2Series struct {
	Name       string
	V, E       int
	Normalized []float64 // sorted descending, max = 1
	Thresholds map[string]float64
	AboveTh    map[string]int // edges above each threshold
}

// Fig2 reproduces the spectral edge ranking/filtering plots for the
// G2_circuit and thermal1 proxies: normalized Joule heats from a one-step
// (t=1) generalized power iteration, with θσ thresholds for
// σ² ∈ {100, 500}.
func Fig2(scale float64, seed uint64) ([]Fig2Series, error) {
	sigmaSqs := []float64{100, 500}
	d1 := scaledDim(60, scale)
	d2 := scaledDim(55, scale)
	g1, err := gen.Grid2D(d1, d1, gen.UniformWeights, seed)
	if err != nil {
		return nil, err
	}
	g2, err := gen.TriMesh(d2, d2, gen.UniformWeights, seed+1)
	if err != nil {
		return nil, err
	}
	out := make([]Fig2Series, 0, 2)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"G2_circuit", g1}, {"thermal1", g2}} {
		norm, ths, err := core.HeatSpectrum(tc.g, 1, 0, sigmaSqs, seed)
		if err != nil {
			return nil, fmt.Errorf("exp: heat spectrum of %s: %w", tc.name, err)
		}
		s := Fig2Series{
			Name: tc.name, V: tc.g.N(), E: tc.g.M(),
			Normalized: norm,
			Thresholds: map[string]float64{},
			AboveTh:    map[string]int{},
		}
		for j, s2 := range sigmaSqs {
			key := fmt.Sprintf("sigma2=%.0f", s2)
			s.Thresholds[key] = ths[j]
			count := 0
			for _, v := range norm {
				if v >= ths[j] {
					count++
				}
			}
			s.AboveTh[key] = count
		}
		out = append(out, s)
	}
	return out, nil
}
