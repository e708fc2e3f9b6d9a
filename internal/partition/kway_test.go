package partition

import (
	"testing"

	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/testkit/fixture"
)

func TestRecursiveBisectFourBlocks(t *testing.T) {
	// Four cliques in a ring with weak bridges: 4-way partition should
	// recover the cliques.
	k := 6
	var es []graph.Edge
	for b := 0; b < 4; b++ {
		base := b * k
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				es = append(es, graph.Edge{U: base + i, V: base + j, W: 1})
			}
		}
	}
	for b := 0; b < 4; b++ {
		es = append(es, graph.Edge{U: b * k, V: ((b+1)%4)*k + 1, W: 0.01})
	}
	g := fixture.Graph(4*k, es)
	res, err := RecursiveBisect(g, 4, Options{Method: Direct, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parts != 4 {
		t.Fatalf("parts = %d, want 4", res.Parts)
	}
	// Every clique must be monochromatic.
	for b := 0; b < 4; b++ {
		want := res.Labels[b*k]
		for i := 1; i < k; i++ {
			if res.Labels[b*k+i] != want {
				t.Fatalf("clique %d split: labels %v", b, res.Labels[b*k:b*k+k])
			}
		}
	}
	// Cut weight = the 4 weak bridges.
	if res.CutWeight > 0.05 {
		t.Fatalf("cut weight %v, want 0.04", res.CutWeight)
	}
}

func TestRecursiveBisectGridBalance(t *testing.T) {
	g, err := gen.Grid2D(16, 16, gen.UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RecursiveBisect(g, 4, Options{Method: Direct, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, res.Parts)
	for _, l := range res.Labels {
		counts[l]++
	}
	if res.Parts != 4 {
		t.Fatalf("parts = %d", res.Parts)
	}
	for p, c := range counts {
		if c < 32 || c > 128 {
			t.Fatalf("part %d badly unbalanced: %d of 256", p, c)
		}
	}
}

func TestRecursiveBisectOnePart(t *testing.T) {
	g, _ := fixture.Path(10)
	res, err := RecursiveBisect(g, 1, Options{Method: Direct})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parts != 1 || res.CutWeight != 0 {
		t.Fatalf("trivial partition wrong: %+v", res)
	}
	for _, l := range res.Labels {
		if l != 0 {
			t.Fatal("all labels must be 0")
		}
	}
}

func TestRecursiveBisectValidation(t *testing.T) {
	g, _ := fixture.Path(10)
	if _, err := RecursiveBisect(g, 0, Options{}); err == nil {
		t.Fatal("parts=0 should fail")
	}
	disc, _ := graph.New(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if _, err := RecursiveBisect(disc, 2, Options{}); err == nil {
		t.Fatal("disconnected should fail")
	}
}

func TestRecursiveBisectIterativeBackend(t *testing.T) {
	g, err := gen.TriMesh(14, 14, gen.UniformWeights, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RecursiveBisect(g, 4, Options{Method: Iterative, SigmaSq: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parts != 4 {
		t.Fatalf("parts = %d", res.Parts)
	}
	seen := map[int]bool{}
	for _, l := range res.Labels {
		seen[l] = true
	}
	if len(seen) != 4 {
		t.Fatalf("labels use %d parts", len(seen))
	}
}

func TestInducedSubgraph(t *testing.T) {
	g, _ := fixture.Cycle(6)
	sub, mapping, err := g.InducedSubgraph([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("induced shape n=%d m=%d", sub.N(), sub.M())
	}
	if mapping[0] != 0 || mapping[2] != 2 {
		t.Fatalf("mapping %v", mapping)
	}
	if _, _, err := g.InducedSubgraph([]int{0, 0}); err == nil {
		t.Fatal("duplicate vertex should fail")
	}
	if _, _, err := g.InducedSubgraph([]int{99}); err == nil {
		t.Fatal("range error expected")
	}
}

// recurse bisects g itself only for the identity vertex list; a
// permutation or a subset of the right length must not pass for it.
func TestIsIdentity(t *testing.T) {
	for _, c := range []struct {
		verts []int
		n     int
		want  bool
	}{
		{[]int{0, 1, 2}, 3, true},
		{nil, 0, true},
		{[]int{0, 2, 1}, 3, false},
		{[]int{0, 1, 3}, 3, false},
		{[]int{0, 1}, 3, false},
	} {
		if got := isIdentity(c.verts, c.n); got != c.want {
			t.Errorf("isIdentity(%v, %d) = %v, want %v", c.verts, c.n, got, c.want)
		}
	}
}
