package tree_test

import (
	"fmt"
	"math"
	"testing"

	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/lsst"
	"graphspar/internal/tree"
)

// backbone is the pipeline's tree for g: lsst's max-weight tree.
func backbone(tb testing.TB, g *graph.Graph) *tree.Tree {
	tb.Helper()
	tr, _, _, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// TotalStretch's offline pass must give, bit for bit, the sum of the
// per-pair reference Stretch over g's edges in edge order.
func TestTotalStretchIsSumOfStretch(t *testing.T) {
	for s := uint64(1); s <= 3; s++ {
		grid, err := gen.Grid2D(48, 48, gen.UniformWeights, s)
		if err != nil {
			t.Fatal(err)
		}
		sbm, _, err := gen.SBM(4, 128, 0.15, 0.02, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			g    *graph.Graph
		}{{"grid48", grid}, {"sbm4x128", sbm}} {
			g := c.g
			t.Run(fmt.Sprintf("%s/seed%d", c.name, s), func(t *testing.T) {
				tr := backbone(t, g)
				var want float64
				for _, e := range g.Edges() {
					want += tr.Stretch(e)
				}
				if got := tr.TotalStretch(g); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("TotalStretch = %v (%#x), Σ Stretch = %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
				}
			})
		}
	}
}

// The 192² mesh of the mesh_solve workload: the total the Euler-tour
// index gave before the offline pass replaced it, pinned to the bit.
func TestTotalStretchPinnedBits(t *testing.T) {
	g, err := gen.Grid2D(192, 192, gen.UniformWeights, 2)
	if err != nil {
		t.Fatal(err)
	}
	const want = 0x412442fcff13136f // 663934.4981924127
	if got := backbone(t, g).TotalStretch(g); math.Float64bits(got) != want {
		t.Fatalf("TotalStretch = %v (%#x), want %v (%#x)", got, math.Float64bits(got), math.Float64frombits(want), uint64(want))
	}
}

var stretchSink float64

// BenchmarkTotalStretch is the backbone's eq. 4 pass on a 320² mesh;
// B/op is its scratch, all of it dropped on return.
func BenchmarkTotalStretch(b *testing.B) {
	g, err := gen.Grid2D(320, 320, gen.UniformWeights, 2)
	if err != nil {
		b.Fatal(err)
	}
	tr := backbone(b, g)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		stretchSink = tr.TotalStretch(g)
	}
}
