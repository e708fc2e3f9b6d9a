package partition

import (
	"math"
	"testing"

	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/testkit/fixture"
)

// dumbbell returns two dense cliques joined by a single weak edge — the
// canonical easy bipartition: the sign cut must separate the cliques.
func dumbbell(k int) *graph.Graph {
	var es []graph.Edge
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			es = append(es, graph.Edge{U: i, V: j, W: 1})
			es = append(es, graph.Edge{U: k + i, V: k + j, W: 1})
		}
	}
	es = append(es, graph.Edge{U: 0, V: k, W: 0.01})
	return fixture.Graph(2*k, es)
}

func TestDirectBisectsDumbbell(t *testing.T) {
	g := dumbbell(8)
	res, err := SpectralBisect(g, Options{Method: Direct, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Each clique must land on one side.
	for i := 1; i < 8; i++ {
		if res.Signs[i] != res.Signs[0] {
			t.Fatalf("clique 1 split at %d", i)
		}
		if res.Signs[8+i] != res.Signs[8] {
			t.Fatalf("clique 2 split at %d", i)
		}
	}
	if res.Signs[0] == res.Signs[8] {
		t.Fatal("cliques not separated")
	}
	if res.Positive+res.Negative != g.N() {
		t.Fatal("signs don't cover all vertices")
	}
	if b := res.Balance(); math.Abs(b-1) > 1e-12 {
		t.Fatalf("balance %v, want 1", b)
	}
	cut, err := CutWeight(g, res.Signs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cut-0.01) > 1e-12 {
		t.Fatalf("cut weight %v, want 0.01", cut)
	}
}

func TestIterativeMatchesDirect(t *testing.T) {
	g, err := gen.Grid2D(12, 20, gen.UniformWeights, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := SpectralBisect(g, Options{Method: Direct, Seed: 5, MaxIter: 200, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	it, err := SpectralBisect(g, Options{Method: Iterative, SigmaSq: 100, Seed: 5, MaxIter: 200, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	relErr, err := SignError(dir.Signs, it.Signs)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Table 3 reports Rel.Err up to ~4e-2; allow 5%.
	if relErr > 0.05 {
		t.Fatalf("sign disagreement %v too high", relErr)
	}
	// λ₂ estimates should agree closely.
	if math.Abs(dir.Lambda2-it.Lambda2) > 0.05*dir.Lambda2 {
		t.Fatalf("λ₂ disagree: %v vs %v", dir.Lambda2, it.Lambda2)
	}
}

func TestSparsifierOnlyMethod(t *testing.T) {
	g, err := gen.Grid2D(10, 18, gen.UniformWeights, 9)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := SpectralBisect(g, Options{Method: Direct, Seed: 5, MaxIter: 200, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SpectralBisect(g, Options{Method: SparsifierOnly, SigmaSq: 20, Seed: 5, MaxIter: 200, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	relErr, err := SignError(dir.Signs, sp.Signs)
	if err != nil {
		t.Fatal(err)
	}
	if relErr > 0.10 {
		t.Fatalf("sparsifier-only sign disagreement %v too high", relErr)
	}
	if sp.SparsifierEdges == 0 {
		t.Fatal("sparsifier edge count not reported")
	}
}

func TestMemProxySmallerForIterative(t *testing.T) {
	g, err := gen.Grid2D(40, 40, gen.UniformWeights, 11)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := SpectralBisect(g, Options{Method: Direct, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	it, err := SpectralBisect(g, Options{Method: Iterative, SigmaSq: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if it.MemProxyBytes >= dir.MemProxyBytes {
		t.Fatalf("iterative memory %d should undercut direct %d", it.MemProxyBytes, dir.MemProxyBytes)
	}
}

func TestSignError(t *testing.T) {
	a := []int8{1, 1, -1, -1}
	b := []int8{-1, -1, 1, 1} // global flip: identical partition
	e, err := SignError(a, b)
	if err != nil || e != 0 {
		t.Fatalf("flip-invariant error = %v, err=%v", e, err)
	}
	c := []int8{1, -1, -1, -1}
	e, err = SignError(a, c)
	if err != nil || math.Abs(e-0.25) > 1e-12 {
		t.Fatalf("error = %v, want 0.25", e)
	}
	if _, err := SignError(a, []int8{1}); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if e, err := SignError(nil, nil); err != nil || e != 0 {
		t.Fatal("empty should be 0")
	}
}

func TestCutWeightValidation(t *testing.T) {
	g, _ := fixture.Path(3)
	if _, err := CutWeight(g, []int8{1}); err == nil {
		t.Fatal("length mismatch should fail")
	}
	w, err := CutWeight(g, []int8{1, 1, -1})
	if err != nil || w != 1 {
		t.Fatalf("cut = %v", w)
	}
}

func TestConductance(t *testing.T) {
	g := dumbbell(4)
	signs := make([]int8, g.N())
	for i := 0; i < 4; i++ {
		signs[i] = 1
		signs[4+i] = -1
	}
	phi, err := Conductance(g, signs)
	if err != nil {
		t.Fatal(err)
	}
	// cut = 0.01; vol each side = 2*6 + 0.01 = 12.01.
	want := 0.01 / 12.01
	if math.Abs(phi-want) > 1e-12 {
		t.Fatalf("conductance %v, want %v", phi, want)
	}
	all := make([]int8, g.N())
	for i := range all {
		all[i] = 1
	}
	if _, err := Conductance(g, all); err == nil {
		t.Fatal("one-sided partition should error")
	}
}

func TestBisectValidation(t *testing.T) {
	g, _ := graph.New(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if _, err := SpectralBisect(g, Options{Method: Direct}); err == nil {
		t.Fatal("disconnected should fail")
	}
	single, _ := graph.New(1, nil)
	if _, err := SpectralBisect(single, Options{Method: Direct}); err == nil {
		t.Fatal("single vertex should fail")
	}
	p, _ := fixture.Path(5)
	if _, err := SpectralBisect(p, Options{Method: Method(42)}); err == nil {
		t.Fatal("unknown method should fail")
	}
}

func TestMethodString(t *testing.T) {
	if Direct.String() != "direct" || Iterative.String() != "iterative" || SparsifierOnly.String() != "sparsifier-only" {
		t.Fatal("method names wrong")
	}
	if Method(9).String() == "" {
		t.Fatal("unknown method should print")
	}
}

func TestGridBalanceNearOne(t *testing.T) {
	// Table 3 reports |V+|/|V-| ≈ 1 for meshes; check on a mesh with random
	// weights.
	g, err := gen.TriMesh(16, 16, gen.UniformWeights, 13)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SpectralBisect(g, Options{Method: Direct, Seed: 7, MaxIter: 300, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	b := res.Balance()
	if b < 0.7 || b > 1.5 {
		t.Fatalf("mesh balance %v outside [0.7, 1.5]", b)
	}
}

func TestBFSBisectBalancedAndDeterministic(t *testing.T) {
	g, err := gen.Grid2D(10, 9, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := SpectralBisect(g, Options{Method: BFS})
	if err != nil {
		t.Fatal(err)
	}
	if a.Positive != 45 || a.Negative != 45 {
		t.Fatalf("BFS split %d/%d, want 45/45", a.Positive, a.Negative)
	}
	if got, want := g.Bytes(), 24*int64(g.M()); got != want {
		t.Fatalf("caller's graph holds %d B after the split, want its edge list's %d: the sweeps left an index", got, want)
	}
	b, err := SpectralBisect(g, Options{Method: BFS})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Signs {
		if a.Signs[i] != b.Signs[i] {
			t.Fatalf("BFS bisection not deterministic at vertex %d", i)
		}
	}
}

func TestBFSBisectSeparatesDumbbell(t *testing.T) {
	// The level-set cut from a peripheral vertex crosses the bridge, so
	// the two cliques land on opposite sides.
	g := dumbbell(8)
	res, err := SpectralBisect(g, Options{Method: BFS})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := CutWeight(g, res.Signs)
	if err != nil {
		t.Fatal(err)
	}
	if cut > 0.011 {
		t.Errorf("BFS cut weight %v, want just the 0.01 bridge", cut)
	}
}

func TestRecursiveBisectBFSMethod(t *testing.T) {
	g, err := gen.Grid2D(16, 16, gen.UniformWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RecursiveBisect(g, 4, Options{Method: BFS})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parts != 4 {
		t.Fatalf("parts = %d, want 4", res.Parts)
	}
	sizes := make(map[int]int)
	for _, l := range res.Labels {
		sizes[l]++
	}
	for part, size := range sizes {
		if size < 32 || size > 96 {
			t.Errorf("part %d badly unbalanced: %d of 256 vertices", part, size)
		}
	}
}

func TestParseMethodRoundTrip(t *testing.T) {
	for _, m := range []Method{Direct, Iterative, SparsifierOnly, BFS} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if got, err := ParseMethod(""); err != nil || got != Direct {
		t.Errorf("ParseMethod(\"\") = %v, %v; want Direct", got, err)
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Error("ParseMethod(bogus) should fail")
	}
}
