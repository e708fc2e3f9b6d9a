package cholesky

import (
	"math"
	"testing"
	"testing/quick"

	"graphspar/internal/gen"
	"graphspar/internal/lsst"
	"graphspar/internal/sparse"
	"graphspar/internal/testkit/fixture"
	"graphspar/internal/vecmath"
)

func TestMinDegreeIsPermutation(t *testing.T) {
	g, _ := gen.Grid2D(9, 9, gen.UniformWeights, 1)
	lap := g.Laplacian()
	perm := MinDegree(lap)
	if len(perm) != lap.Rows {
		t.Fatalf("perm length %d", len(perm))
	}
	seen := make([]bool, len(perm))
	for _, v := range perm {
		if v < 0 || v >= len(perm) || seen[v] {
			t.Fatalf("not a permutation at %d", v)
		}
		seen[v] = true
	}
}

func TestMinDegreeTreeZeroFill(t *testing.T) {
	// A tree factors with zero fill under minimum degree: factor NNZ =
	// n (diagonal) + n-1 (one entry per edge).
	g, _ := fixture.Path(64)
	tr, _, _, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewLapSolver(tr.Graph())
	if err != nil {
		t.Fatal(err)
	}
	n := g.N() - 1 // grounded dimension
	maxNNZ := n + (n - 1)
	if ls.FactorNNZ() > maxNNZ {
		t.Fatalf("tree factor has fill: %d > %d", ls.FactorNNZ(), maxNNZ)
	}
}

func TestMinDegreeBeatsRCMOnNearTree(t *testing.T) {
	// Spanning tree + a few random off-tree edges: MD fill ≪ RCM fill.
	g, err := gen.Grid2D(24, 24, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, treeIDs, offIDs, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = tr
	keep := append([]int(nil), treeIDs...)
	keep = append(keep, offIDs[:20]...)
	p, err := g.SubgraphEdges(keep)
	if err != nil {
		t.Fatal(err)
	}
	// Build the grounded reduced matrix both ways.
	n := p.N()
	b := sparse.NewBuilder(n-1, n-1)
	deg := p.WeightedDegrees()
	for i := 0; i < n-1; i++ {
		b.Add(i, i, deg[i])
	}
	for _, e := range p.Edges() {
		if e.U != n-1 && e.V != n-1 {
			b.Add(e.U, e.V, -e.W)
			b.Add(e.V, e.U, -e.W)
		}
	}
	red := b.Build()
	fMD, err := FactorCSR(red, MinDegree(red))
	if err != nil {
		t.Fatal(err)
	}
	fRCM, err := FactorCSR(red, RCM(red))
	if err != nil {
		t.Fatal(err)
	}
	if fMD.NNZ() >= fRCM.NNZ() {
		t.Fatalf("MD fill %d should beat RCM fill %d on near-trees", fMD.NNZ(), fRCM.NNZ())
	}
}

// Property: factorization with MinDegree ordering still solves correctly.
func TestQuickMinDegreeSolves(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vecmath.NewRNG(seed)
		n := 2 + rng.Intn(25)
		a := randSPD(n, rng)
		fac, err := FactorCSR(a, MinDegree(a))
		if err != nil {
			return false
		}
		b := make([]float64, n)
		rng.FillNormal(b)
		x := make([]float64, n)
		fac.Solve(x, b)
		y := make([]float64, n)
		a.MulVec(y, x)
		for i := range b {
			if math.Abs(y[i]-b[i]) > 1e-7*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFactorSolveNoAllocSteadyState(t *testing.T) {
	// After the first call warms the work buffer, Solve must not allocate.
	rng := vecmath.NewRNG(9)
	a := randSPD(50, rng)
	f, err := FactorCSR(a, MinDegree(a))
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 50)
	x := make([]float64, 50)
	rng.FillNormal(b)
	f.Solve(x, b) // warm-up
	allocs := testing.AllocsPerRun(20, func() { f.Solve(x, b) })
	if allocs > 0 {
		t.Fatalf("Solve allocates %v times per call", allocs)
	}
}
