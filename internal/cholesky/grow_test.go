package cholesky

import (
	"fmt"
	"math"
	"testing"

	"graphspar/internal/graph"
	"graphspar/internal/testkit/matrix"
	"graphspar/internal/vecmath"
)

// nearTree is a random tree on n vertices (vertex i hangs off a random
// earlier one) plus extra chords, with irregular weights: the shape of a
// stream's sparsifier, whose factor has little fill for an insert to land
// inside.
func nearTree(t testing.TB, n, extra int, rng *vecmath.RNG) *graph.Graph {
	t.Helper()
	has := make(map[[2]int]bool, n+extra)
	edges := make([]graph.Edge, 0, n-1+extra)
	add := func(u, v int) {
		u, v = min(u, v), max(u, v)
		if u != v && !has[[2]int{u, v}] {
			has[[2]int{u, v}] = true
			edges = append(edges, graph.Edge{U: u, V: v, W: 0.5 + rng.Float64()})
		}
	}
	for i := 1; i < n; i++ {
		add(rng.Intn(i), i)
	}
	for len(edges) < n-1+extra {
		add(rng.Intn(n), rng.Intn(n))
	}
	return mustGraph(t)(graph.New(n, edges))
}

// checkGrown is the growth contract on ls after it absorbed the edges of
// g (a deleted edge keeps its entries, so g is the union of every edge the
// factor has seen; live carries the weights now in force): its pattern is,
// column for column, the symbolic factor of g under ls's order — what
// FactorCSR lays out for g — and solves match a fresh factorization of
// live in that order to 1e-12 relative.
func checkGrown(t *testing.T, name string, ls *LapSolver, g, live *graph.Graph) {
	t.Helper()
	sym, err := newLapSolver(g, ls.Order())
	if err != nil {
		t.Fatalf("%s: symbolic reference: %v", name, err)
	}
	f, want := ls.factor, sym.factor
	if f.NNZ() != want.NNZ() {
		t.Fatalf("%s: grown factor has %d entries, the symbolic factor of its edges %d", name, f.NNZ(), want.NNZ())
	}
	for j := 0; j < f.n; j++ {
		got, exp := column(f, j), column(want, j)
		if len(got) != len(exp) {
			t.Fatalf("%s: column %d has %d rows, the symbolic factor %d", name, j, len(got), len(exp))
		}
		for q := range got {
			if got[q].row != exp[q].row {
				t.Fatalf("%s: column %d entry %d has row %d, the symbolic factor %d", name, j, q, got[q].row, exp[q].row)
			}
		}
		if f.parent[j] != want.parent[j] {
			t.Fatalf("%s: column %d has parent %d, the symbolic factor's elimination tree %d", name, j, f.parent[j], want.parent[j])
		}
	}
	fresh, err := newLapSolver(live, ls.Order())
	if err != nil {
		t.Fatalf("%s: fresh factorization: %v", name, err)
	}
	n := live.N()
	b := make([]float64, n)
	vecmath.NewRNG(uint64(n)).FillNormal(b)
	x, y := make([]float64, n), make([]float64, n)
	ls.Solve(x, b)
	fresh.Solve(y, b)
	var diff, scale float64
	for i := range x {
		diff = math.Max(diff, math.Abs(x[i]-y[i]))
		scale = math.Max(scale, math.Abs(y[i]))
	}
	if diff > 1e-12*scale {
		t.Fatalf("%s: grown factor's solve differs from a fresh one's by %.3g relative", name, diff/scale)
	}
}

// TestGrowMatchesSymbolicFactor drives near-tree factors through 1–16
// inserts outside their pattern, interleaved with in-pattern downdates
// and one insert at the ground vertex. After every step the factor is the
// scalar oracle's (whose growth is written out one row at a time) bit for
// bit, with checkFactor's layout invariants — each run is its column's
// last stretch of at least minRun rows — and meets checkGrown's contract.
// Every other case first grows the pattern for all its inserts at once
// (Grow) and is checked at the end, where the per-edge growth of the
// oracle has caught up: a pattern grown ahead changes no value.
func TestGrowMatchesSymbolicFactor(t *testing.T) {
	rng := vecmath.NewRNG(61)
	for trial := 0; trial < 64; trial++ {
		n := 40 + rng.Intn(160)
		g := nearTree(t, n, n/32, rng)
		// Half the trials grow under an order minimum degree did not pick.
		shuffled := trial%4 >= 2
		perm := []int(nil)
		if shuffled {
			perm = matrix.Perm(vecmath.NewRNG(uint64(trial)), n-1)
		}
		ls, err := newLapSolver(g, perm)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRefLapSolver(g, ls.Order())
		if err != nil {
			t.Fatal(err)
		}
		batched := trial%2 == 1
		name := func(step string) string {
			return fmt.Sprintf("trial %d (n %d, shuffled %v, batched %v)/%s", trial, n, shuffled, batched, step)
		}

		ground := n - 1
		edges := g.EdgesCopy()
		weight := func(u, v int) (int, bool) {
			for i, e := range edges {
				if e.U == min(u, v) && e.V == max(u, v) {
					return i, true
				}
			}
			return 0, false
		}
		// The inserts: pairs outside the pattern, then one at the ground.
		var inserts []graph.Edge
		for want := 1 + rng.Intn(16); len(inserts) < want; {
			u, v := rng.Intn(ground), rng.Intn(ground)
			a, b := ls.factor.inv[u], ls.factor.inv[v]
			if u == v || ls.factor.hasRow(min(a, b), max(a, b)) {
				continue
			}
			if _, ok := weight(u, v); ok {
				continue
			}
			dup := false
			for _, e := range inserts {
				dup = dup || (e.U == min(u, v) && e.V == max(u, v))
			}
			if !dup {
				inserts = append(inserts, graph.Edge{U: min(u, v), V: max(u, v), W: 0.25 + rng.Float64()})
			}
		}
		for v := 0; v < ground; v++ {
			if _, ok := weight(v, ground); !ok {
				inserts = append(inserts, graph.Edge{U: v, V: ground, W: 0.75})
				break
			}
		}
		if batched {
			if err := ls.Grow(inserts); err != nil {
				t.Fatal(err)
			}
		}
		for i, e := range inserts {
			if err := ls.ApplyEdge(e.U, e.V, e.W); err != nil {
				t.Fatalf("%s: %v", name("insert"), err)
			}
			if err := ref.ApplyEdge(e.U, e.V, e.W); err != nil {
				t.Fatalf("%s: oracle: %v", name("insert"), err)
			}
			edges = append(edges, e)
			if rng.Intn(2) == 0 {
				// Halve a random edge: a downdate inside the pattern.
				d := &edges[rng.Intn(len(edges))]
				if err := ls.ApplyEdge(d.U, d.V, -d.W/2); err != nil {
					t.Fatalf("%s: %v", name("downdate"), err)
				}
				if err := ref.ApplyEdge(d.U, d.V, -d.W/2); err != nil {
					t.Fatalf("%s: oracle: %v", name("downdate"), err)
				}
				d.W /= 2
			}
			if batched && i < len(inserts)-1 {
				continue
			}
			checkFactor(t, name("factor"), ls.factor, ref.factor)
			live := mustGraph(t)(graph.New(n, append([]graph.Edge(nil), edges...)))
			checkGrown(t, name("grown"), ls, live, live)
		}
	}
}

// A deletion keeps its entries: the pattern stays the symbolic factor of
// every edge absorbed, while the values follow the live graph.
func TestGrowKeepsDeletedEntries(t *testing.T) {
	must := mustGraph(t)
	g := must(graph.New(6, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}}))
	natural := []int{0, 1, 2, 3, 4}
	ls, err := newLapSolver(g, natural)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.ApplyEdge(0, 3, 2); err != nil {
		t.Fatal(err)
	}
	if err := ls.ApplyEdge(1, 2, -1); err != nil { // (1,2) leaves; 0–3 keeps the path connected
		t.Fatal(err)
	}
	union := must(graph.New(6, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 3, W: 2}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}}))
	live := must(graph.New(6, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 3, W: 2}, {U: 2, V: 3, W: 1}, {U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}}))
	checkGrown(t, "after the deletion", ls, union, live)
}
