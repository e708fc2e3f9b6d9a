package cholesky_test

// External test package so the update property suite can reuse the graph
// families of internal/testkit (which itself imports cholesky).

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"graphspar/internal/cholesky"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/sparse"
	"graphspar/internal/testkit"
	"graphspar/internal/testkit/fixture"
	"graphspar/internal/testkit/matrix"
	"graphspar/internal/vecmath"
)

func buildSPD(entries [][3]float64, n int) *sparse.CSR {
	b := sparse.NewBuilder(n, n)
	for _, e := range entries {
		b.Add(int(e[0]), int(e[1]), e[2])
	}
	return b.Build()
}

// relDiff returns max_i |x-y| / max(1, max_i |x|).
func relDiff(x, y []float64) float64 {
	var diff, scale float64
	for i := range x {
		if d := math.Abs(x[i] - y[i]); d > diff {
			diff = d
		}
		if a := math.Abs(x[i]); a > scale {
			scale = a
		}
	}
	if scale < 1 {
		scale = 1
	}
	return diff / scale
}

// TestFactorUpdateMatchesRefactor checks the dense Update entry point: an
// update followed by solves must match factoring A + v·vᵀ from scratch,
// and the matching downdate must restore the original factor.
func TestFactorUpdateMatchesRefactor(t *testing.T) {
	a := buildSPD([][3]float64{
		{0, 0, 4}, {0, 1, -1}, {1, 0, -1}, {1, 1, 4}, {1, 2, -2}, {2, 1, -2}, {2, 2, 5},
	}, 3)
	f, err := cholesky.FactorCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{0.4, 0.2, 0} // pattern {0,1} ⊆ pattern(L(:,0))
	if err := f.Update(v, 1); err != nil {
		t.Fatalf("update: %v", err)
	}
	// A + v vᵀ factored fresh.
	up := buildSPD([][3]float64{
		{0, 0, 4 + 0.16}, {0, 1, -1 + 0.08}, {1, 0, -1 + 0.08},
		{1, 1, 4 + 0.04}, {1, 2, -2}, {2, 1, -2}, {2, 2, 5},
	}, 3)
	fRef, err := cholesky.FactorCSR(up, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, -2, 3}
	x, y := make([]float64, 3), make([]float64, 3)
	f.Solve(x, b)
	fRef.Solve(y, b)
	if d := relDiff(x, y); d > 1e-12 {
		t.Fatalf("updated solve differs from refactored solve by %g", d)
	}
	// Downdate back and compare against the original matrix.
	if err := f.Update(v, -1); err != nil {
		t.Fatalf("downdate: %v", err)
	}
	fOrig, err := cholesky.FactorCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.Solve(x, b)
	fOrig.Solve(y, b)
	if d := relDiff(x, y); d > 1e-12 {
		t.Fatalf("downdated solve differs from original solve by %g", d)
	}
}

// TestFactorUpdateGrowsPattern: a path factor has no fill, so (0,3) is
// outside its pattern. ApplyEdge grows the pattern to exactly the
// symbolic factor of the path plus (0,3) under the same order, column for
// column, and solves match a fresh factorization in that order.
func TestFactorUpdateGrowsPattern(t *testing.T) {
	g, err := fixture.Path(5)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := cholesky.NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	before := ls.FactorNNZ()
	if err := ls.ApplyEdge(0, 3, 1.0); err != nil {
		t.Fatalf("ApplyEdge on an edge outside the pattern: %v", err)
	}
	g2, err := g.AddEdges([]graph.Edge{{U: 0, V: 3, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := cholesky.NewLapSolverOrdered(g2, ls.Order())
	if err != nil {
		t.Fatal(err)
	}
	got, want := ls.Pattern(), fresh.Pattern()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grown pattern %v, symbolic factor of the path plus (0,3) %v", got, want)
	}
	if ls.FactorNNZ() <= before {
		t.Fatalf("pattern did not grow: %d entries, %d before", ls.FactorNNZ(), before)
	}
	b := []float64{1, 0, -1, 2, -2}
	x, y := make([]float64, 5), make([]float64, 5)
	ls.Solve(x, b)
	fresh.Solve(y, b)
	if d := relDiff(x, y); d > 1e-12 {
		t.Fatalf("grown factor's solve differs from a fresh factorization's by %g", d)
	}
}

func TestDowndateToSingularRejected(t *testing.T) {
	g, err := fixture.Path(3)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := cholesky.NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	// Removing (0,1) disconnects vertex 0: the reduced system goes
	// singular and the downdate must refuse rather than emit NaNs.
	if err := ls.ApplyEdge(0, 1, -1.0); !errors.Is(err, cholesky.ErrNotSPD) {
		t.Fatalf("disconnecting downdate: got %v, want ErrNotSPD", err)
	}
}

func TestApplyEdgeGroundIncident(t *testing.T) {
	g, err := gen.Grid2D(4, 4, gen.UniformWeights, 7)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	for _, shuffled := range []bool{false, true} {
		ls := newSolver(t, g, shuffled)
		// Reweight an edge incident to the ground vertex n-1.
		var gu, gv int
		var gw float64
		found := false
		for _, e := range g.Edges() {
			if e.U == n-1 || e.V == n-1 {
				gu, gv, gw = e.U, e.V, e.W
				found = true
				break
			}
		}
		if !found {
			t.Fatal("no ground-incident edge")
		}
		if err := ls.ApplyEdge(gu, gv, 0.75*gw); err != nil {
			t.Fatalf("ground-incident update: %v", err)
		}
		edges := append([]graph.Edge(nil), g.Edges()...)
		for i := range edges {
			if edges[i].U == gu && edges[i].V == gv {
				edges[i].W += 0.75 * gw
			}
		}
		g2, err := graph.New(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		assertSolversMatch(t, ls, g2, 1e-10)
	}
}

// newSolver factors g under minimum degree's order or, shuffled, under a
// seeded random order minimum degree would not pick.
func newSolver(t *testing.T, g *graph.Graph, shuffled bool) *cholesky.LapSolver {
	t.Helper()
	var ls *cholesky.LapSolver
	var err error
	if shuffled {
		ls, err = cholesky.NewLapSolverOrdered(g, matrix.Perm(vecmath.NewRNG(uint64(g.N())), g.N()-1))
	} else {
		ls, err = cholesky.NewLapSolver(g)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// assertSolversMatch solves a fixed right-hand side through ls and through
// a from-scratch factorization of g and requires agreement to tol.
func assertSolversMatch(t *testing.T, ls *cholesky.LapSolver, g *graph.Graph, tol float64) {
	t.Helper()
	fresh, err := cholesky.NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	b := make([]float64, n)
	rng := vecmath.NewRNG(99)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, y := make([]float64, n), make([]float64, n)
	ls.Solve(x, b)
	fresh.Solve(y, b)
	if d := relDiff(x, y); d > tol {
		t.Fatalf("updated solver differs from from-scratch by %g (tol %g)", d, tol)
	}
}

// TestApplyEdgeStreamMatchesFromScratch is the randomized property suite of
// the issue: across the grid/SBM/barbell families, streams of reweights,
// deletions and re-insertions folded into the factor via ApplyEdge must
// keep solves within 1e-10 of a from-scratch NewLapSolver of the evolved
// graph — under both minimum degree's order and a shuffled one.
func TestApplyEdgeStreamMatchesFromScratch(t *testing.T) {
	for _, tc := range testkit.Cases() {
		for _, shuffled := range []bool{false, true} {
			name := tc.Name + "/mindeg"
			if shuffled {
				name = tc.Name + "/shuffled"
			}
			t.Run(name, func(t *testing.T) {
				g, err := tc.Build(42)
				if err != nil {
					t.Fatal(err)
				}
				ls := newSolver(t, g, shuffled)
				rng := vecmath.NewRNG(1234)
				// Live edge weights; 0 marks a structurally-present edge
				// whose weight was downdated away (deleted).
				w := make(map[[2]int]float64, g.M())
				var keys [][2]int
				for _, e := range g.Edges() {
					k := [2]int{e.U, e.V}
					w[k] = e.W
					keys = append(keys, k)
				}
				orig := make(map[[2]int]float64, len(w))
				for k, v := range w {
					orig[k] = v
				}
				currentGraph := func() (*graph.Graph, error) {
					var edges []graph.Edge
					for _, k := range keys {
						if w[k] > 0 {
							edges = append(edges, graph.Edge{U: k[0], V: k[1], W: w[k]})
						}
					}
					return graph.New(g.N(), edges)
				}
				applied := 0
				for batch := 0; batch < 12; batch++ {
					for op := 0; op < 8; op++ {
						k := keys[rng.Intn(len(keys))]
						cur := w[k]
						var dw float64
						if cur == 0 {
							dw = orig[k] // re-insert a deleted edge
						} else {
							switch rng.Intn(4) {
							case 0:
								dw = -cur // delete
							case 1:
								dw = -0.5 * cur
							default:
								dw = (0.25 + rng.Float64()) * cur
							}
						}
						// Keep the evolved graph connected so the
						// from-scratch reference exists; a disconnecting
						// delete is covered by the singular-rejection test.
						if cur+dw <= 0 {
							w[k] = 0
							g2, err := currentGraph()
							w[k] = cur
							if err != nil {
								continue
							}
							if g2.RequireConnected() != nil {
								continue
							}
						}
						if err := ls.ApplyEdge(k[0], k[1], dw); err != nil {
							t.Fatalf("batch %d op %d ApplyEdge(%v, %g): %v", batch, op, k, dw, err)
						}
						w[k] = cur + dw
						applied++
					}
					g2, err := currentGraph()
					if err != nil {
						t.Fatal(err)
					}
					assertSolversMatch(t, ls, g2, 1e-10)
				}
				if applied < 50 {
					t.Fatalf("stream too short: only %d updates applied", applied)
				}
			})
		}
	}
}
