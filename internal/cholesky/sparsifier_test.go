package cholesky_test

// Differential tests and benchmarks over the matrices the product
// actually factors: reduced Laplacians of σ²-sparsifiers. They sparsify
// through internal/core, which imports this package, hence the external
// test package.

import (
	"math"
	"testing"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/sparse"
	"graphspar/internal/vecmath"
)

func sparsifierOf(tb testing.TB, g *graph.Graph, sigmaSq float64) *graph.Graph {
	tb.Helper()
	res, err := core.Sparsify(g, core.Options{SigmaSq: sigmaSq, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Sparsifier
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// goldenGraphs are the pipeline golden's three inputs.
func goldenGraphs(t *testing.T) []namedGraph {
	t.Helper()
	grid, err := gen.Grid2D(48, 48, gen.UniformWeights, 9)
	if err != nil {
		t.Fatal(err)
	}
	sbm, _, err := gen.SBM(4, 128, 0.15, 0.02, 13)
	if err != nil {
		t.Fatal(err)
	}
	barbell, err := gen.Barbell(24, 12, gen.UniformWeights, 5)
	if err != nil {
		t.Fatal(err)
	}
	return []namedGraph{{"grid48", grid}, {"sbm4x128", sbm}, {"barbell", barbell}}
}

// The pipeline golden's three graphs at its σ² = 50: the orderings of
// their sparsifiers' reduced Laplacians are what every golden byte
// downstream depends on. Approximate minimum degree may pick another
// pivot than exact minimum degree wherever its degree bound is loose, so
// the order is not pinned; its fill is, at most 1.05× that of the exact
// reference's order, graph and sparsifier alike.
func TestMinDegreeMatchesReferenceOnPipelineSparsifiers(t *testing.T) {
	for _, c := range goldenGraphs(t) {
		for _, p := range []*graph.Graph{c.g, sparsifierOf(t, c.g, 50)} {
			red := cholesky.ReducedLaplacianCSR(p)
			got, want := factorNNZ(t, red, cholesky.MinDegree(red)), factorNNZ(t, red, cholesky.MinDegreeRef(red))
			if got > want*105/100 {
				t.Errorf("%s (m=%d): nnz(L) %d > 1.05× the exact minimum degree order's %d", c.name, p.M(), got, want)
			}
		}
	}
}

func factorNNZ(t *testing.T, a *sparse.CSR, perm []int) int {
	t.Helper()
	f, err := cholesky.FactorCSR(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	return f.NNZ()
}

// The fill of MinDegree's order on the pipeline golden's three
// sparsifiers and the two the benchmarks factor may not exceed 1.05× the
// fill of the exact minimum degree order it replaced, counted as the
// factor's nnz; exactFill holds that order's counts (minDegreeRef's order,
// which the exact kernel reproduced element for element).
func TestMinDegreeFillNoWorse(t *testing.T) {
	exactFill := map[string]int{
		"grid48": 9548, "sbm4x128": 15224, "barbell": 186,
		"grid192": 208533, "sbm4x512": 170970,
	}
	check := func(name string, p *graph.Graph) {
		red := cholesky.ReducedLaplacianCSR(p)
		if nnz, limit := factorNNZ(t, red, cholesky.MinDegree(red)), exactFill[name]*105/100; nnz > limit {
			t.Errorf("%s: nnz(L) %d > %d (1.05× the exact minimum degree order's %d)", name, nnz, limit, exactFill[name])
		}
	}
	for _, c := range goldenGraphs(t) {
		check(c.name, sparsifierOf(t, c.g, 50))
	}
	if testing.Short() {
		return
	}
	for _, c := range benchSparsifiers(t) {
		check(c.name, c.p)
	}
}

// The same three sparsifiers, and the two the benchmarks factor, through
// the run-aware kernels and the scalar oracle: factor, solves and rank-1
// updates bit for bit.
func TestKernelsMatchReferenceOnSparsifiers(t *testing.T) {
	for _, c := range goldenGraphs(t) {
		cholesky.CheckKernels(t, c.name, sparsifierOf(t, c.g, 50))
	}
	if testing.Short() {
		return
	}
	for _, c := range benchSparsifiers(t) {
		cholesky.CheckKernels(t, c.name, c.p)
	}
}

// benchSparsifiers are the σ² = 100 sparsifiers of the two graph families
// the batch benchmark workloads run on (cmd/bench's mesh_solve and
// sbm_multilevel inputs).
func benchSparsifiers(b testing.TB) []struct {
	name string
	p    *graph.Graph
} {
	b.Helper()
	grid, err := gen.Grid2D(192, 192, gen.UniformWeights, 1)
	if err != nil {
		b.Fatal(err)
	}
	sbm, _, err := gen.SBM(4, 512, 0.04, 0.008, 1)
	if err != nil {
		b.Fatal(err)
	}
	return []struct {
		name string
		p    *graph.Graph
	}{
		{"grid192", sparsifierOf(b, grid, 100)},
		{"sbm4x512", sparsifierOf(b, sbm, 100)},
	}
}

// TestOrderedMatchesNewLapSolver: on the σ² = 100 grid and SBM
// sparsifiers, NewLapSolverOrdered under NewLapSolver's own
// minimum-degree order is NewLapSolver: the same nnz(L), and solves equal
// bit for bit.
func TestOrderedMatchesNewLapSolver(t *testing.T) {
	if testing.Short() {
		t.Skip("sparsifies a 192² grid and a 4×512 SBM")
	}
	for _, c := range benchSparsifiers(t) {
		md, err := cholesky.NewLapSolver(c.p)
		if err != nil {
			t.Fatal(err)
		}
		ordered, err := cholesky.NewLapSolverOrdered(c.p, md.Order())
		if err != nil {
			t.Fatalf("%s: minimum-degree order refused: %v", c.name, err)
		}
		if ordered.FactorNNZ() != md.FactorNNZ() {
			t.Fatalf("%s: ordered factor has %d entries, NewLapSolver's %d", c.name, ordered.FactorNNZ(), md.FactorNNZ())
		}
		b := make([]float64, c.p.N())
		for i := range b {
			b[i] = math.Sin(float64(7*i + 3))
		}
		x, want := make([]float64, len(b)), make([]float64, len(b))
		ordered.Solve(x, b)
		md.Solve(want, b)
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: ordered solve x[%d] = %v, NewLapSolver's %v", c.name, i, x[i], want[i])
			}
		}
	}
}

// Bad permutations are errors; a single vertex's order is empty.
func TestOrderedRejectsBadPermutation(t *testing.T) {
	g, err := gen.Grid2D(4, 4, gen.UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	ok := make([]int, g.N()-1)
	for i := range ok {
		ok[i] = i
	}
	dup := append([]int(nil), ok...)
	dup[3] = dup[4]
	out := append([]int(nil), ok...)
	out[0] = len(ok)
	for _, c := range []struct {
		name string
		perm []int
		want string
	}{
		{"nil", nil, "cholesky: nil permutation"},
		{"short", ok[1:], "cholesky: permutation length 14, want 15"},
		{"duplicate", dup, "cholesky: invalid permutation"},
		{"out of range", out, "cholesky: invalid permutation"},
		{"negative", append([]int{-1}, ok[1:]...), "cholesky: invalid permutation"},
	} {
		ls, err := cholesky.NewLapSolverOrdered(g, c.perm)
		if err == nil || err.Error() != c.want || ls != nil {
			t.Errorf("%s: got (%v, %v), want %q", c.name, ls, err, c.want)
		}
	}
	if _, err := cholesky.NewLapSolverOrdered(g, ok); err != nil {
		t.Fatalf("identity order refused: %v", err)
	}
	one, err := graph.New(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ls, err := cholesky.NewLapSolverOrdered(one, nil); err != nil || ls.Dim() != 0 {
		t.Fatalf("one vertex under a nil order: got (%v, %v), want an empty solver", ls, err)
	}
}

var benchSink int

// BenchmarkMinDegree times the ordering and reports the nnz(L) of the
// order it returns, so fill prints next to time: on the two benchmark
// sparsifiers, and on the σ² = 100 sparsifier of a 320² mesh (102 400
// vertices, the size of the sharded plan's certificate factor on
// cmd/bench's mesh_sharded), where an ordering whose cost grows faster
// than the graph shows it.
func BenchmarkMinDegree(b *testing.B) {
	mesh, err := gen.Grid2D(320, 320, gen.UniformWeights, 1)
	if err != nil {
		b.Fatal(err)
	}
	cases := append(benchSparsifiers(b), struct {
		name string
		p    *graph.Graph
	}{"mesh320", sparsifierOf(b, mesh, 100)})
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			red := cholesky.ReducedLaplacianCSR(c.p)
			var perm []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				perm = cholesky.MinDegree(red)
			}
			b.StopTimer()
			f, err := cholesky.FactorCSR(red, perm)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(f.NNZ()), "nnz(L)")
		})
	}
}

func BenchmarkLapSolverFactorSparsifier(b *testing.B) {
	for _, c := range benchSparsifiers(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ls, err := cholesky.NewLapSolver(c.p)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += ls.FactorNNZ()
			}
		})
	}
}

// BenchmarkFactorNumeric is the factorization with the ordering taken
// out: symbolic + numeric passes of FactorCSR under a fixed
// minimum-degree order. run_share is the fraction of nnz(L) the kernels
// walk as slices instead of gathering.
func BenchmarkFactorNumeric(b *testing.B) {
	for _, c := range benchSparsifiers(b) {
		b.Run(c.name, func(b *testing.B) {
			red := cholesky.ReducedLaplacianCSR(c.p)
			perm := cholesky.MinDegree(red)
			var share float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := cholesky.FactorCSR(red, perm)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += f.NNZ()
				share = f.RunShare()
			}
			b.ReportMetric(share, "run_share")
		})
	}
}

func BenchmarkFactorSolve(b *testing.B) {
	for _, c := range benchSparsifiers(b) {
		b.Run(c.name, func(b *testing.B) {
			ls, err := cholesky.NewLapSolver(c.p)
			if err != nil {
				b.Fatal(err)
			}
			rhs := make([]float64, c.p.N())
			for i := range rhs {
				rhs[i] = float64(i%7) - 3
			}
			x := make([]float64, len(rhs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ls.Solve(x, rhs)
			}
			b.ReportMetric(ls.RunShare(), "run_share")
		})
	}
}

// BenchmarkApplyEdgeGrow is the growth layer: edges of G outside its σ² =
// 100 sparsifier P (what a stream admits) inserted into P's
// minimum-degree factor by ApplyEdge, each growing the pattern where it
// lies outside it — on the grid128 factor the stream_mixed workload
// maintains, and on SBM 4×512's. edge/ applies them one at a time (a
// relayout per insert that needs fill); batch8/ grows the pattern for
// eight at once (Grow) before applying them, as a stream batch does.
// ns/op and nnz-growth/insert are per insert; the factor is rebuilt
// outside the timer every 64 inserts, so it grows from P's own pattern.
func BenchmarkApplyEdgeGrow(b *testing.B) {
	grid, err := gen.Grid2D(128, 128, gen.UniformWeights, 1)
	if err != nil {
		b.Fatal(err)
	}
	sbm, _, err := gen.SBM(4, 512, 0.04, 0.008, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"grid128", grid}, {"sbm4x512", sbm}} {
		p := sparsifierOf(b, c.g, 100)
		var off []graph.Edge
		for _, e := range c.g.Edges() {
			if !p.HasEdge(e.U, e.V) {
				off = append(off, e)
			}
		}
		rng := vecmath.NewRNG(1)
		for i := len(off) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			off[i], off[j] = off[j], off[i]
		}
		for _, batch := range []int{1, 8} {
			name := c.name + "/edge"
			if batch > 1 {
				name = c.name + "/batch8"
			}
			b.Run(name, func(b *testing.B) {
				var ls *cholesky.LapSolver
				grown, next := 0, 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += batch {
					if i%64 == 0 {
						b.StopTimer()
						if ls != nil {
							grown += ls.FactorNNZ()
						}
						var err error
						if ls, err = cholesky.NewLapSolver(p); err != nil {
							b.Fatal(err)
						}
						grown -= ls.FactorNNZ()
						b.StartTimer()
					}
					edges := off[next%len(off):][:min(batch, b.N-i, len(off)-next%len(off))]
					next += len(edges)
					if batch > 1 {
						if err := ls.Grow(edges); err != nil {
							b.Fatal(err)
						}
					}
					for _, e := range edges {
						if err := ls.ApplyEdge(e.U, e.V, e.W); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				grown += ls.FactorNNZ()
				b.ReportMetric(float64(grown)/float64(next), "nnz-growth/insert")
			})
		}
	}
}
