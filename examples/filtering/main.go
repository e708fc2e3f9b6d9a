// filtering demonstrates the graph-signal-processing view of §3.4: the
// Joule-heat edge ranking with σ² thresholds (Fig. 2), the sparsifier as a
// low-pass filter, and spectral drawings of an airfoil-proxy mesh and its
// sparsifier (Fig. 1).
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"graphspar"
	"graphspar/internal/cholesky"
	"graphspar/internal/gsp"
	"graphspar/internal/vecmath"
)

func main() {
	// --- Fig. 2: heat spectrum with similarity-aware thresholds.
	g, err := graphspar.LoadGraph("grid:80x80:uniform", 17)
	if err != nil {
		log.Fatal(err)
	}
	norm, ths, err := graphspar.HeatSpectrum(g, 1, 0, []float64{100, 500}, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heat spectrum of a G2-circuit-style grid (|E_off|=%d):\n", len(norm))
	fmt.Printf("  top heats: %.3g %.3g %.3g %.3g ...\n", norm[0], norm[1], norm[2], norm[3])
	for i, s2 := range []float64{100, 500} {
		count := 0
		for _, v := range norm {
			if v >= ths[i] {
				count++
			}
		}
		fmt.Printf("  θ(σ²=%.0f) = %.3e → keeps %d off-tree edges\n", s2, ths[i], count)
	}

	// --- §3.4: the sparsifier behaves as a low-pass filter.
	s20, err := graphspar.New(graphspar.WithSigma2(20), graphspar.WithSeed(5))
	if err != nil {
		log.Fatal(err)
	}
	res, err := s20.Run(context.Background(), g)
	if err != nil && !errors.Is(err, graphspar.ErrNoTarget) {
		log.Fatal(err)
	}
	s := make([]float64, g.N())
	vecmath.NewRNG(9).FillNormal(s)
	rel, err := gsp.FilterAgreement(g, res.Sparsifier, s, 10)
	if err != nil {
		log.Fatal(err)
	}
	tree, err := g.SubgraphEdges(res.TreeEdgeIDs)
	if err != nil {
		log.Fatal(err)
	}
	relTree, err := gsp.FilterAgreement(g, tree, s, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTikhonov low-pass agreement with G (relative L2 error):\n")
	fmt.Printf("  σ²=20 sparsifier: %.3f   bare spanning tree: %.3f\n", rel, relTree)

	// --- Fig. 1: spectral drawings stay aligned.
	air, err := graphspar.LoadGraph("annulus:12x40", 3)
	if err != nil {
		log.Fatal(err)
	}
	s3, err := graphspar.New(graphspar.WithSigma2(20), graphspar.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	ares, err := s3.Run(context.Background(), air)
	if err != nil && !errors.Is(err, graphspar.ErrNoTarget) {
		log.Fatal(err)
	}
	lsG, err := cholesky.NewLapSolver(air)
	if err != nil {
		log.Fatal(err)
	}
	lsP, err := cholesky.NewLapSolver(ares.Sparsifier)
	if err != nil {
		log.Fatal(err)
	}
	dg, err := gsp.SpectralDrawing(air, lsG, 7)
	if err != nil {
		log.Fatal(err)
	}
	dp, err := gsp.SpectralDrawing(ares.Sparsifier, lsP, 7)
	if err != nil {
		log.Fatal(err)
	}
	corr, err := gsp.DrawingCorrelation(dg, dp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nairfoil-proxy drawings: |E| %d → %d, layout correlation %.3f\n",
		air.M(), ares.Sparsifier.M(), corr)
	fmt.Println("(dump coordinates with: go run ./cmd/experiments -fig 1 -coords)")
}
