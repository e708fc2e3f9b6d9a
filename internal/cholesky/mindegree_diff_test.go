package cholesky

import (
	"reflect"
	"testing"

	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/sparse"
	"graphspar/internal/vecmath"
)

// checkMinDegree asserts the flat kernel returns the reference
// permutation element for element.
func checkMinDegree(t testing.TB, name string, a *sparse.CSR) {
	t.Helper()
	want := minDegreeRef(a)
	if got := MinDegree(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: MinDegree differs from reference\n got %v\nwant %v", name, clip(got), clip(want))
	}
}

func clip(p []int) []int {
	if len(p) > 64 {
		return p[:64]
	}
	return p
}

func mustGraph(t testing.TB) func(g *graph.Graph, err error) *graph.Graph {
	return func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

// randomTree attaches vertex i to a uniformly random earlier vertex.
func randomTree(t testing.TB, n int, seed uint64) *graph.Graph {
	rng := vecmath.NewRNG(seed)
	edges := make([]graph.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: rng.Intn(i), V: i, W: 1})
	}
	return mustGraph(t)(graph.New(n, edges))
}

func TestMinDegreeMatchesReference(t *testing.T) {
	must := mustGraph(t)
	sbm, _, err := gen.SBM(4, 96, 0.15, 0.02, 13)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", must(gen.Path(200))},
		{"star", must(gen.Star(300))},
		{"tree", randomTree(t, 500, 7)},
		{"K12", must(gen.Complete(12))},
		{"grid9", must(gen.Grid2D(9, 9, gen.UniformWeights, 1))},
		{"grid40", must(gen.Grid2D(40, 40, gen.UniformWeights, 2))},
		{"sbm4x96", sbm},
	}
	for _, c := range graphs {
		// Both shapes the package orders: the full Laplacian pattern and
		// the grounded one NewLapSolver factors.
		checkMinDegree(t, c.name+"/full", c.g.Laplacian())
		checkMinDegree(t, c.name+"/reduced", reducedLaplacianCSR(c.g))
	}
}

func TestMinDegreeTrivialSizes(t *testing.T) {
	for n := 0; n <= 1; n++ {
		a := sparse.NewBuilder(n, n)
		if n == 1 {
			a.Add(0, 0, 2)
		}
		checkMinDegree(t, "tiny", a.Build())
	}
}

// An unsymmetric pattern is ordered as A ∪ Aᵀ, like the reference.
func TestMinDegreeSymmetrizesPattern(t *testing.T) {
	rng := vecmath.NewRNG(5)
	n := 60
	b := sparse.NewBuilder(n, n)
	for k := 0; k < 150; k++ {
		b.Add(rng.Intn(n), rng.Intn(n), 1)
	}
	checkMinDegree(t, "unsymmetric", b.Build())
}

// patternFromBytes decodes a fuzz input into a symmetric pattern: byte 0
// picks n in 1..256, then each byte pair is an edge (mod n). At that size
// short inputs run on the neighbor lists and only long ones start out
// dense enough for the bitset rows, so the fuzzer reaches both.
func patternFromBytes(data []byte) *sparse.CSR {
	if len(data) == 0 {
		return sparse.NewBuilder(0, 0).Build()
	}
	n := 1 + int(data[0])
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
	}
	for k := 1; k+1 < len(data); k += 2 {
		i, j := int(data[k])%n, int(data[k+1])%n
		if i != j {
			b.Add(i, j, 1)
			b.Add(j, i, 1)
		}
	}
	return b.Build()
}

func FuzzMinDegree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6})
	f.Add([]byte{11, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10})
	f.Add([]byte{63, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 40, 2, 41, 4, 42, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMinDegree(t, "fuzz", patternFromBytes(data))
	})
}
