package resistance

import (
	"math"
	"testing"
	"testing/quick"

	"graphspar/internal/cholesky"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/lsst"
	"graphspar/internal/testkit/fixture"
	"graphspar/internal/vecmath"
)

func solver(t *testing.T, g *graph.Graph) *cholesky.LapSolver {
	t.Helper()
	ls, err := cholesky.NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

func TestPointToPointSeries(t *testing.T) {
	// Path 0-1-2 with weights 2 and 3: R(0,2) = 1/2 + 1/3 = 5/6.
	g, _ := graph.New(3, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}})
	r, err := PointToPoint(g, solver(t, g), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-5.0/6) > 1e-10 {
		t.Fatalf("R = %v, want 5/6", r)
	}
}

func TestPointToPointParallel(t *testing.T) {
	// Two parallel unit edges merge into weight 2: R = 1/2.
	g, _ := graph.New(2, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 1, W: 1}})
	r, err := PointToPoint(g, solver(t, g), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.5) > 1e-10 {
		t.Fatalf("R = %v, want 0.5", r)
	}
}

func TestPointToPointSame(t *testing.T) {
	g, _ := fixture.Path(3)
	r, err := PointToPoint(g, solver(t, g), 1, 1)
	if err != nil || r != 0 {
		t.Fatalf("R(v,v) = %v err=%v", r, err)
	}
	if _, err := PointToPoint(g, solver(t, g), 0, 9); err == nil {
		t.Fatal("expected range error")
	}
}

func TestAllEdgesExactCycle(t *testing.T) {
	// Unit cycle C_4: each edge sees 1 in series with 3 → R = 3/4.
	g, _ := fixture.Cycle(4)
	rs, err := AllEdgesExact(g, solver(t, g))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if math.Abs(r-0.75) > 1e-10 {
			t.Fatalf("edge %d R = %v, want 0.75", i, r)
		}
	}
}

func TestSumLeverageEqualsNMinusOne(t *testing.T) {
	// Foster's theorem: Σ w_e R_e = n - 1.
	g, err := gen.Grid2D(5, 6, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := AllEdgesExact(g, solver(t, g))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i, e := range g.Edges() {
		sum += e.W * rs[i]
	}
	if math.Abs(sum-float64(g.N()-1)) > 1e-8 {
		t.Fatalf("Foster sum = %v, want %d", sum, g.N()-1)
	}
}

func TestApproxMatchesExact(t *testing.T) {
	g, err := gen.Grid2D(6, 6, gen.UniformWeights, 5)
	if err != nil {
		t.Fatal(err)
	}
	ls := solver(t, g)
	exact, err := AllEdgesExact(g, ls)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := ApproxAllEdges(g, ls, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if exact[i] < 1e-9 {
			continue
		}
		relErr := math.Abs(approx[i]-exact[i]) / exact[i]
		if relErr > 0.5 {
			t.Fatalf("edge %d: approx %v vs exact %v (rel %v)", i, approx[i], exact[i], relErr)
		}
	}
}

func TestApproxInvalidK(t *testing.T) {
	g, _ := fixture.Path(4)
	if _, err := ApproxAllEdges(g, solver(t, g), 0, 1); err == nil {
		t.Fatal("k=0 should fail")
	}
}

func TestSpielmanSrivastavaPreservesQuadForm(t *testing.T) {
	g, err := gen.Grid2D(8, 8, gen.UniformWeights, 9)
	if err != nil {
		t.Fatal(err)
	}
	ls := solver(t, g)
	rs, err := AllEdgesExact(g, ls)
	if err != nil {
		t.Fatal(err)
	}
	_, treeIDs, _, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SpielmanSrivastava(g, rs, SampleOptions{Samples: 6 * g.M(), Seed: 11, Backbone: treeIDs})
	if err != nil {
		t.Fatal(err)
	}
	if !sp.IsConnected() {
		t.Fatal("backbone must keep the sample connected")
	}
	// Quadratic forms should match within a generous multiplicative factor
	// for random test vectors.
	rng := vecmath.NewRNG(13)
	x := make([]float64, g.N())
	for trial := 0; trial < 10; trial++ {
		rng.FillNormal(x)
		qg := g.LapQuadForm(x)
		qs := sp.LapQuadForm(x)
		if qs < qg/4 || qs > qg*4 {
			t.Fatalf("quad forms diverge: %v vs %v", qg, qs)
		}
	}
}

func TestUniformSample(t *testing.T) {
	g, err := gen.Grid2D(6, 6, gen.UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := UniformSample(g, SampleOptions{Samples: g.M() / 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sp.N() != g.N() {
		t.Fatalf("vertex count changed")
	}
	if sp.M() == 0 || sp.M() > g.M() {
		t.Fatalf("sample edge count %d out of range", sp.M())
	}
}

func TestSampleValidation(t *testing.T) {
	g, _ := fixture.Path(4)
	if _, err := UniformSample(g, SampleOptions{Samples: 0}); err == nil {
		t.Fatal("zero samples should fail")
	}
	if _, err := SpielmanSrivastava(g, []float64{1}, SampleOptions{Samples: 5}); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := UniformSample(g, SampleOptions{Samples: 5, Backbone: []int{99}}); err == nil {
		t.Fatal("bad backbone id should fail")
	}
}

// Property: resistance is a metric-ish quantity — symmetric and satisfying
// the series bound R(u,w) <= R(u,v) + R(v,w) (it's a true metric).
func TestQuickResistanceTriangle(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vecmath.NewRNG(seed)
		g, err := gen.Grid2D(4, 5, gen.UniformWeights, seed)
		if err != nil {
			return false
		}
		ls, err := cholesky.NewLapSolver(g)
		if err != nil {
			return false
		}
		n := g.N()
		for trial := 0; trial < 5; trial++ {
			u, v, w := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			ruv, err1 := PointToPoint(g, ls, u, v)
			rvw, err2 := PointToPoint(g, ls, v, w)
			ruw, err3 := PointToPoint(g, ls, u, w)
			if err1 != nil || err2 != nil || err3 != nil {
				return false
			}
			if ruw > ruv+rvw+1e-9 {
				return false
			}
			rvu, err4 := PointToPoint(g, ls, v, u)
			if err4 != nil || math.Abs(ruv-rvu) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: edge resistance never exceeds 1/w (the edge itself is a
// parallel path).
func TestQuickEdgeResistanceBound(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.Grid2D(4, 4, gen.UniformWeights, seed)
		if err != nil {
			return false
		}
		ls, err := cholesky.NewLapSolver(g)
		if err != nil {
			return false
		}
		rs, err := AllEdgesExact(g, ls)
		if err != nil {
			return false
		}
		for i, e := range g.Edges() {
			if rs[i] > 1/e.W+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
