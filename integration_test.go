package graphspar_test

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"graphspar/internal/cholesky"
	"graphspar/internal/cluster"
	"graphspar/internal/core"
	"graphspar/internal/eig"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/lsst"
	"graphspar/internal/mm"
	"graphspar/internal/partition"
	"graphspar/internal/pcg"
	"graphspar/internal/resistance"
	"graphspar/internal/vecmath"
)

// TestPipelineSparsifySolvePartitionCluster drives the full stack on one
// graph: sparsify → precondition PCG → partition → cluster, checking
// cross-module consistency rather than any single module in isolation.
func TestPipelineSparsifySolvePartitionCluster(t *testing.T) {
	g, err := gen.TriMesh(24, 24, gen.UniformWeights, 101)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()

	res, err := core.Sparsify(g, core.Options{SigmaSq: 60, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.SigmaSqAchieved > 60 {
		t.Fatalf("σ² %v > 60", res.SigmaSqAchieved)
	}

	// 1. Preconditioned solve must beat plain CG in iterations.
	m, err := pcg.NewCholPrecond(res.Sparsifier)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	vecmath.NewRNG(7).FillNormal(b)
	vecmath.Deflate(b)
	x1 := make([]float64, n)
	r1, err := pcg.SolveLaplacian(g, m, x1, append([]float64(nil), b...), 1e-8, 10*n)
	if err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, n)
	r2, err := pcg.SolveLaplacian(g, nil, x2, append([]float64(nil), b...), 1e-8, 20*n)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Iterations >= r2.Iterations {
		t.Fatalf("preconditioning not helping: %d vs %d", r1.Iterations, r2.Iterations)
	}
	// Both solvers agree on the solution.
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-5*(1+math.Abs(x2[i])) {
			t.Fatalf("solutions diverge at %d", i)
		}
	}

	// 2. Partition signs from direct and sparsifier-accelerated backends
	// must agree almost everywhere.
	dir, err := partition.SpectralBisect(g, partition.Options{Method: partition.Direct, Seed: 5, MaxIter: 60, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	it, err := partition.SpectralBisect(g, partition.Options{Method: partition.Iterative, SigmaSq: 60, Seed: 5, MaxIter: 60, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	re, err := partition.SignError(dir.Signs, it.Signs)
	if err != nil {
		t.Fatal(err)
	}
	if re > 0.05 {
		t.Fatalf("partition disagreement %v", re)
	}

	// 3. The sparsifier Laplacian solver drives clustering on the mesh
	// without error (smoke-level sanity; quality asserted in cluster tests).
	chol, err := pcg.NewCholPrecond(res.Sparsifier)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.SpectralKMeans(res.Sparsifier, chol.S, cluster.Options{K: 4, Seed: 3}); err != nil {
		t.Fatal(err)
	}
}

// TestMTXRoundTripThroughSparsifier writes a sparsifier to MatrixMarket,
// reads it back, and checks spectral quantities survive the round trip.
func TestMTXRoundTripThroughSparsifier(t *testing.T) {
	g, err := gen.Grid2D(14, 14, gen.UniformWeights, 33)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Sparsify(g, core.Options{SigmaSq: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mm.WriteGraph(&buf, res.Sparsifier); err != nil {
		t.Fatal(err)
	}
	parsed, err := mm.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parsed.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	if back.M() != res.Sparsifier.M() || back.N() != res.Sparsifier.N() {
		t.Fatal("round trip changed the sparsifier's shape")
	}
	// Quadratic forms identical for random vectors.
	rng := vecmath.NewRNG(3)
	x := make([]float64, g.N())
	for trial := 0; trial < 5; trial++ {
		rng.FillNormal(x)
		a := res.Sparsifier.LapQuadForm(x)
		bq := back.LapQuadForm(x)
		if math.Abs(a-bq) > 1e-9*(1+math.Abs(a)) {
			t.Fatalf("quadratic form changed: %v vs %v", a, bq)
		}
	}
}

// TestExtremeWeightRobustness pushes a 12-decade dynamic range of edge
// weights through tree extraction, sparsification and solving.
func TestExtremeWeightRobustness(t *testing.T) {
	rng := vecmath.NewRNG(5)
	rows, cols := 12, 12
	id := func(r, c int) int { return r*cols + c }
	var es []graph.Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			w := math.Pow(10, -6+12*rng.Float64()) // 1e-6 .. 1e6
			if c+1 < cols {
				es = append(es, graph.Edge{U: id(r, c), V: id(r, c+1), W: w})
			}
			if r+1 < rows {
				es = append(es, graph.Edge{U: id(r, c), V: id(r+1, c), W: w * (0.5 + rng.Float64())})
			}
		}
	}
	g, err := graph.New(rows*cols, es)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Sparsify(g, core.Options{SigmaSq: 100, Seed: 7})
	if err != nil && !errors.Is(err, core.ErrNoTarget) {
		t.Fatalf("extreme weights broke sparsification: %v", err)
	}
	if !res.Sparsifier.IsConnected() {
		t.Fatal("sparsifier disconnected")
	}
	// Solve a system against the original graph with the sparsifier
	// preconditioner; residual must actually converge.
	m, err := pcg.NewCholPrecond(res.Sparsifier)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	b := make([]float64, n)
	rng.FillNormal(b)
	vecmath.Deflate(b)
	x := make([]float64, n)
	r, err := pcg.SolveLaplacian(g, m, x, b, 1e-6, 20*n)
	if err != nil {
		t.Fatalf("solve failed: %v (%+v)", err, r)
	}
}

// TestSolversAgreeOnPseudoinverse cross-checks every L⁺ implementation in
// the repo (tree on trees; Cholesky and PCG on general graphs) against
// each other.
func TestSolversAgreeOnPseudoinverse(t *testing.T) {
	g, err := gen.Grid2D(11, 13, gen.UniformWeights, 21)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	b := make([]float64, n)
	vecmath.NewRNG(9).FillNormal(b)
	vecmath.Deflate(b)

	direct, err := cholesky.NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	xDirect := make([]float64, n)
	direct.Solve(xDirect, b)

	iter := &eig.PCGSolver{G: g, M: pcg.NewJacobi(g), Tol: 1e-12, MaxIter: 20 * n}
	xIter := make([]float64, n)
	iter.Solve(xIter, b)

	for i := 0; i < n; i++ {
		if math.Abs(xDirect[i]-xIter[i]) > 1e-6*(1+math.Abs(xDirect[i])) {
			t.Fatalf("direct vs PCG diverge at %d: %v vs %v", i, xDirect[i], xIter[i])
		}
	}
}

// TestStretchConsistencyWithResistance ties two modules together: the
// stretch of an off-tree edge (lsst/tree) must equal w·R_tree where R_tree
// comes from solving on the tree graph (resistance).
func TestStretchConsistencyWithResistance(t *testing.T) {
	g, err := gen.Grid2D(8, 8, gen.UniformWeights, 17)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, offIDs, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	treeSolver, err := cholesky.NewLapSolver(tr.Graph())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range offIDs[:10] {
		e := g.Edge(id)
		rTree, err := resistance.PointToPoint(tr.Graph(), treeSolver, e.U, e.V)
		if err != nil {
			t.Fatal(err)
		}
		want := e.W * rTree
		got := tr.Stretch(e)
		if math.Abs(got-want) > 1e-8*(1+want) {
			t.Fatalf("stretch mismatch for edge %d: %v vs %v", id, got, want)
		}
	}
}

// TestSparsifierEigenvaluesInterlace verifies the spectral-similarity
// guarantee the whole paper is about, using an independent Lanczos
// estimate: 1 ≤ λ(L_P⁺L_G) ≤ σ² for all Ritz values.
func TestSparsifierEigenvaluesInterlace(t *testing.T) {
	g, err := gen.TriMesh(16, 16, gen.UniformWeights, 71)
	if err != nil {
		t.Fatal(err)
	}
	target := 50.0
	res, err := core.Sparsify(g, core.Options{SigmaSq: target, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	solver, err := cholesky.NewLapSolver(res.Sparsifier)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := eig.GeneralizedLanczos(g, res.Sparsifier, solver, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if v < 1-1e-6 {
			t.Fatalf("Ritz value %v < 1 violates interlacing", v)
		}
		if v > target*1.3 {
			t.Fatalf("Ritz value %v far above the σ²=%v guarantee", v, target)
		}
	}
}
