// Command solve solves a graph-Laplacian SDD system L_G x = b with PCG
// preconditioned by a similarity-aware sparsifier, and compares against
// unpreconditioned and Jacobi-preconditioned CG — the Table 2 workflow as
// a tool.
//
// Usage:
//
//	solve -graph grid:400x400:uniform -sigma2 50 -tol 1e-3
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"graphspar"
	"graphspar/internal/mm"
	"graphspar/internal/pcg"
	"graphspar/internal/sddm"
	"graphspar/internal/vecmath"
)

func main() {
	var (
		spec    = flag.String("graph", "", graphspar.SpecHelp)
		sigmaSq = flag.Float64("sigma2", 50, "sparsifier similarity target σ²")
		tol     = flag.Float64("tol", 1e-3, "relative residual target")
		seed    = flag.Uint64("seed", 1, "random seed (graph + RHS)")
		compare = flag.Bool("compare", true, "also run unpreconditioned and Jacobi CG")
		sdd     = flag.Bool("sdd", false, "treat a .mtx input as a general SDD matrix (keeps excess diagonal) instead of converting to a Laplacian")
	)
	flag.Parse()

	if *sdd {
		if !strings.HasSuffix(*spec, ".mtx") {
			fatal(errors.New("-sdd requires a .mtx input"))
		}
		solveSDD(*spec, *sigmaSq, *tol, *seed)
		return
	}

	g, err := graphspar.LoadGraph(*spec, *seed)
	if err != nil {
		fatal(err)
	}
	n := g.N()
	fmt.Printf("input: |V|=%d |E|=%d, tol=%g\n", n, g.M(), *tol)

	b := make([]float64, n)
	vecmath.NewRNG(*seed + 1).FillNormal(b)
	vecmath.Deflate(b)

	sp, err := graphspar.New(graphspar.WithSigma2(*sigmaSq), graphspar.WithSeed(*seed), graphspar.WithMode(graphspar.ModeSingleShot))
	if err != nil {
		fatal(err)
	}
	t0 := time.Now()
	res, err := sp.Run(context.Background(), g)
	if err != nil && !errors.Is(err, graphspar.ErrNoTarget) {
		fatal(err)
	}
	tSpar := time.Since(t0)
	fmt.Printf("sparsifier: |Es|/|V|=%.3f  σ²=%.1f  built in %s\n",
		res.Density(), res.SigmaSqAchieved, tSpar.Round(time.Millisecond))

	t1 := time.Now()
	m, err := pcg.NewCholPrecond(res.Sparsifier)
	if err != nil {
		fatal(err)
	}
	tFac := time.Since(t1)

	run := func(name string, m pcg.Preconditioner) {
		x := make([]float64, n)
		bb := append([]float64(nil), b...)
		t := time.Now()
		r, err := pcg.SolveLaplacian(g, m, x, bb, *tol, 20*n)
		d := time.Since(t)
		status := "converged"
		if err != nil {
			status = err.Error()
		}
		fmt.Printf("%-22s iterations=%5d  residual=%.2e  time=%s  (%s)\n",
			name, r.Iterations, r.Residual, d.Round(time.Millisecond), status)
	}
	fmt.Printf("sparsifier factor built in %s\n", tFac.Round(time.Millisecond))
	run("PCG[sparsifier]", m)
	if *compare {
		run("CG[none]", nil)
		run("PCG[jacobi]", pcg.NewJacobi(g))
	}
}

// solveSDD handles the general SDD path: the raw matrix keeps its excess
// diagonal through the ground-vertex augmentation of internal/sddm.
func solveSDD(path string, sigmaSq, tol float64, seed uint64) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	m, err := mm.Read(f)
	if err != nil {
		fatal(err)
	}
	a := m.CSR()
	fmt.Printf("SDD matrix: %dx%d, nnz=%d\n", a.Rows, a.Cols, a.NNZ())
	t0 := time.Now()
	s, err := sddm.NewSolver(a, sddm.Options{SigmaSq: sigmaSq, Seed: seed})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("sparsifier: |Es|/|V|=%.3f σ²=%.1f, setup %s\n",
		s.Spar.Density(), s.Spar.SigmaSqAchieved, time.Since(t0).Round(time.Millisecond))
	n := a.Rows
	b := make([]float64, n)
	vecmath.NewRNG(seed + 1).FillNormal(b)
	x := make([]float64, n)
	t1 := time.Now()
	res, err := s.Solve(x, b, tol, 0)
	status := "converged"
	if err != nil {
		status = err.Error()
	}
	fmt.Printf("PCG[sparsifier]: iterations=%d residual=%.2e time=%s (%s)\n",
		res.Iterations, res.Residual, time.Since(t1).Round(time.Millisecond), status)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "solve:", err)
	os.Exit(1)
}
