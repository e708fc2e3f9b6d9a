// Quickstart: sparsify a graph to a guaranteed spectral similarity with
// the public graphspar API and use the result as a PCG preconditioner —
// the end-to-end tour in ~60 lines.
package main

import (
	"context"
	"fmt"
	"log"

	"graphspar"
	"graphspar/internal/pcg"
	"graphspar/internal/vecmath"
)

func main() {
	// 1. A workload: a 2D circuit-style grid with random conductances.
	// LoadGraph accepts a generator spec or a MatrixMarket file path.
	g, err := graphspar.LoadGraph("grid:120x120:uniform", 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.N(), g.M())

	// 2. Sparsify with a guaranteed relative condition number σ² ≤ 100.
	s, err := graphspar.New(graphspar.WithSigma2(100), graphspar.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Run(context.Background(), g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sparsifier: %d edges (density %.3f), verified κ %.1f\n",
		res.Sparsifier.M(), res.Density(), res.VerifiedCond)
	fmt.Printf("backbone tree stretch: %.3e; off-tree edges recovered: %d\n",
		res.TotalStretch, len(res.OffTreeAddedIDs))

	// 3. Solve L_G x = b with the sparsifier as preconditioner. (The PCG
	// solver layer is not part of the facade; any solver that accepts a
	// graph Laplacian works with Result.Sparsifier.)
	precond, err := pcg.NewCholPrecond(res.Sparsifier)
	if err != nil {
		log.Fatal(err)
	}
	b := make([]float64, g.N())
	vecmath.NewRNG(7).FillNormal(b)
	vecmath.Deflate(b)

	x := make([]float64, g.N())
	sol, err := pcg.SolveLaplacian(g, precond, x, append([]float64(nil), b...), 1e-6, 1000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PCG[sparsifier]: %d iterations to 1e-6\n", sol.Iterations)

	// 4. Compare with plain CG on the same system.
	x2 := make([]float64, g.N())
	plain, err := pcg.SolveLaplacian(g, nil, x2, append([]float64(nil), b...), 1e-6, 10*g.N())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CG[none]:        %d iterations to 1e-6 (%.1fx more)\n",
		plain.Iterations, float64(plain.Iterations)/float64(sol.Iterations))
}
