package gen

import (
	"slices"
	"testing"
	"testing/quick"

	"graphspar/internal/graph"
	"graphspar/internal/testkit/fixture"
)

// degrees lists every vertex's degree, read off g's incidence lists.
func degrees(g *graph.Graph) []int {
	in := graph.NewIncidence(g)
	d := make([]int, g.N())
	for v := range d {
		to, _ := in.Arcs(v)
		d[v] = len(to)
	}
	return d
}

func TestGrid2DShape(t *testing.T) {
	g, err := Grid2D(4, 5, UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 20 {
		t.Fatalf("N = %d, want 20", g.N())
	}
	// Edges: 4*4 horizontal + 3*5 vertical = 31.
	if g.M() != 31 {
		t.Fatalf("M = %d, want 31", g.M())
	}
	if !g.IsConnected() {
		t.Fatal("grid must be connected")
	}
}

func TestGrid2DWeightsUnit(t *testing.T) {
	g, _ := Grid2D(3, 3, UnitWeights, 1)
	for _, e := range g.Edges() {
		if e.W != 1 {
			t.Fatalf("unit weight violated: %+v", e)
		}
	}
}

func TestGrid2DWeightsUniformDeterministic(t *testing.T) {
	a, _ := Grid2D(3, 3, UniformWeights, 7)
	b, _ := Grid2D(3, 3, UniformWeights, 7)
	for i := range a.Edges() {
		if a.Edge(i) != b.Edge(i) {
			t.Fatal("same seed must give same graph")
		}
		if w := a.Edge(i).W; w < 0.1 || w >= 1.1 {
			t.Fatalf("uniform weight out of range: %v", w)
		}
	}
	c, _ := Grid2D(3, 3, UniformWeights, 8)
	same := true
	for i := range a.Edges() {
		if a.Edge(i) != c.Edge(i) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestGrid2DInvalid(t *testing.T) {
	if _, err := Grid2D(0, 5, UnitWeights, 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestGrid3DShape(t *testing.T) {
	g, err := Grid3D(3, 4, 5, UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 60 {
		t.Fatalf("N = %d", g.N())
	}
	// Edges: 2*4*5 + 3*3*5 + 3*4*4 = 40+45+48 = 133.
	if g.M() != 133 {
		t.Fatalf("M = %d, want 133", g.M())
	}
	if !g.IsConnected() {
		t.Fatal("3D grid must be connected")
	}
}

func TestTriMesh(t *testing.T) {
	g, err := TriMesh(4, 4, LogUniform, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Grid edges 2*3*4=24 plus one diagonal per cell 3*3=9.
	if g.M() != 33 {
		t.Fatalf("M = %d, want 33", g.M())
	}
	if !g.IsConnected() {
		t.Fatal("TriMesh must be connected")
	}
	if _, err := TriMesh(1, 5, UnitWeights, 1); err == nil {
		t.Fatal("expected error for 1 row")
	}
}

func TestAnnulus(t *testing.T) {
	g, pos, err := Annulus(5, 12, UnitWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 60 || len(pos) != 60 {
		t.Fatalf("N = %d, len(pos) = %d", g.N(), len(pos))
	}
	if !g.IsConnected() {
		t.Fatal("annulus must be connected")
	}
	// Every vertex should have degree >= 3 (ring + radial).
	for v, d := range degrees(g) {
		if d < 3 {
			t.Fatalf("vertex %d degree %d < 3", v, d)
		}
	}
	if _, _, err := Annulus(1, 10, UnitWeights, 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestKNNConnectedAndDegree(t *testing.T) {
	g, err := KNN(300, 6, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 300 {
		t.Fatalf("N = %d", g.N())
	}
	if !g.IsConnected() {
		t.Fatal("KNN output must be connected")
	}
	// Every vertex has at least k/2-ish neighbors (mutual edges merge).
	for v, d := range degrees(g) {
		if d < 3 {
			t.Fatalf("vertex %d degree %d suspiciously low", v, d)
		}
	}
	for _, e := range g.Edges() {
		if e.W <= 0 || e.W > 1 {
			t.Fatalf("kernel weight out of (0,1]: %v", e.W)
		}
	}
}

func TestKNN3D(t *testing.T) {
	g, err := KNN(200, 5, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Fatal("3D KNN must be connected")
	}
}

func TestKNNInvalid(t *testing.T) {
	if _, err := KNN(10, 10, 2, 1); err == nil {
		t.Fatal("k >= n should fail")
	}
	if _, err := KNN(10, 2, 4, 1); err == nil {
		t.Fatal("dim=4 should fail")
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g, err := BarabasiAlbert(500, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 500 {
		t.Fatalf("N = %d", g.N())
	}
	if !g.IsConnected() {
		t.Fatal("BA graph must be connected")
	}
	// Power-law check (weak): max degree far above average.
	maxDeg := slices.Max(degrees(g))
	avg := 2 * float64(g.M()) / float64(g.N())
	if float64(maxDeg) < 3*avg {
		t.Fatalf("BA max degree %d not heavy-tailed vs avg %.1f", maxDeg, avg)
	}
}

func TestBarabasiAlbertInvalid(t *testing.T) {
	if _, err := BarabasiAlbert(5, 5, 1); err == nil {
		t.Fatal("m >= n should fail")
	}
}

func TestCoauthorship(t *testing.T) {
	base, _ := BarabasiAlbert(400, 3, 19)
	g, err := Coauthorship(400, 3, 0.5, 19)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() <= base.M() {
		t.Fatalf("closure should add edges: %d vs %d", g.M(), base.M())
	}
	if !g.IsConnected() {
		t.Fatal("coauthorship graph must be connected")
	}
	if _, err := Coauthorship(100, 2, 1.5, 1); err == nil {
		t.Fatal("bad closure should fail")
	}
}

func TestWattsStrogatz(t *testing.T) {
	g, err := WattsStrogatz(200, 6, 0.1, 23)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Fatal("WS graph must be connected")
	}
	if _, err := WattsStrogatz(10, 3, 0.1, 1); err == nil {
		t.Fatal("odd k should fail")
	}
}

func TestDenseRandom(t *testing.T) {
	g, err := DenseRandom(300, 40, 29)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Fatal("DenseRandom must be connected")
	}
	avg := 2 * float64(g.M()) / float64(g.N())
	if avg < 25 || avg > 45 {
		t.Fatalf("average degree %.1f far from requested 40", avg)
	}
}

func TestRandomRegular(t *testing.T) {
	g, err := RandomRegular(200, 6, 31)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Fatal("RandomRegular must be connected")
	}
	var sum int
	for _, d := range degrees(g) {
		sum += d
	}
	avg := float64(sum) / float64(g.N())
	if avg < 5 || avg > 9 {
		t.Fatalf("avg degree %.1f not near 6-8", avg)
	}
}

// TestSmallFixtures checks the unit-weight shapes other packages' tests
// build on (internal/testkit/fixture), next to the generators.
func TestSmallFixtures(t *testing.T) {
	p, err := fixture.Path(5)
	if err != nil || p.M() != 4 {
		t.Fatalf("Path: %v m=%d", err, p.M())
	}
	c, err := fixture.Cycle(5)
	if err != nil || c.M() != 5 {
		t.Fatalf("Cycle: %v", err)
	}
	k, err := fixture.Complete(5)
	if err != nil || k.M() != 10 {
		t.Fatalf("Complete: %v", err)
	}
	s, err := fixture.Star(5)
	if err != nil || s.M() != 4 || degrees(s)[0] != 4 {
		t.Fatalf("Star: %v", err)
	}
	for _, bad := range []func() error{
		func() error { _, err := fixture.Path(0); return err },
		func() error { _, err := fixture.Cycle(2); return err },
		func() error { _, err := fixture.Complete(1); return err },
		func() error { _, err := fixture.Star(1); return err },
	} {
		if bad() == nil {
			t.Fatal("expected error from tiny fixture")
		}
	}
}

// Property: every generator output is connected for a range of seeds.
func TestQuickGeneratorsConnected(t *testing.T) {
	f := func(seed uint64) bool {
		g1, err := Grid2D(6, 7, UniformWeights, seed)
		if err != nil || !g1.IsConnected() {
			return false
		}
		g2, err := KNN(120, 4, 2, seed)
		if err != nil || !g2.IsConnected() {
			return false
		}
		g3, err := BarabasiAlbert(100, 2, seed)
		if err != nil || !g3.IsConnected() {
			return false
		}
		g4, err := WattsStrogatz(100, 4, 0.3, seed)
		if err != nil || !g4.IsConnected() {
			return false
		}
		g5, err := RandomRegular(80, 4, seed)
		if err != nil || !g5.IsConnected() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestBarbell(t *testing.T) {
	g, err := Barbell(5, 3, UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantN := 2*5 + 3 - 1
	wantM := 2*(5*4/2) + 3
	if g.N() != wantN || g.M() != wantM {
		t.Fatalf("shape = %d/%d, want %d/%d", g.N(), g.M(), wantN, wantM)
	}
	if !g.IsConnected() {
		t.Fatal("barbell must be connected")
	}
	// Every path edge is a bridge: removing (k-1, k) = (4, 5) must split
	// the graph into the left clique and everything else.
	var keep []graph.Edge
	for _, e := range g.Edges() {
		if e.U == 4 && e.V == 5 {
			continue
		}
		keep = append(keep, e)
	}
	cut := fixture.Graph(g.N(), keep)
	if cut.IsConnected() {
		t.Fatal("removing a path edge must disconnect the barbell")
	}
	if _, err := Barbell(2, 1, UnitWeights, 1); err == nil {
		t.Fatal("k < 3 should fail")
	}
	if _, err := Barbell(4, 0, UnitWeights, 1); err == nil {
		t.Fatal("pathLen < 1 should fail")
	}
}

// Every constructor is a function of its arguments: two calls with one
// seed in one process build the same graph, byte for byte. A map ranged
// into the edge list or the sampling state breaks this (BarabasiAlbert
// once fed its preferential-attachment list in map order).
func TestConstructorsDeterministic(t *testing.T) {
	drop := func(g *graph.Graph, _ []int, err error) (*graph.Graph, error) { return g, err }
	dropPos := func(g *graph.Graph, _ []([2]float64), err error) (*graph.Graph, error) { return g, err }
	for _, c := range []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"Grid2D", func() (*graph.Graph, error) { return Grid2D(9, 7, UniformWeights, 3) }},
		{"Grid3D", func() (*graph.Graph, error) { return Grid3D(5, 4, 3, LogUniform, 3) }},
		{"TriMesh", func() (*graph.Graph, error) { return TriMesh(8, 6, UniformWeights, 3) }},
		{"Annulus", func() (*graph.Graph, error) { return dropPos(Annulus(4, 12, UniformWeights, 3)) }},
		{"KNN", func() (*graph.Graph, error) { return KNN(300, 5, 2, 3) }},
		{"BarabasiAlbert", func() (*graph.Graph, error) { return BarabasiAlbert(500, 3, 1) }},
		{"Coauthorship", func() (*graph.Graph, error) { return Coauthorship(400, 3, 0.5, 3) }},
		{"WattsStrogatz", func() (*graph.Graph, error) { return WattsStrogatz(200, 4, 0.3, 3) }},
		{"DenseRandom", func() (*graph.Graph, error) { return DenseRandom(100, 8, 3) }},
		{"RandomRegular", func() (*graph.Graph, error) { return RandomRegular(80, 4, 3) }},
		{"Barbell", func() (*graph.Graph, error) { return Barbell(5, 3, UniformWeights, 3) }},
		{"SBM", func() (*graph.Graph, error) { return drop(SBM(3, 40, 0.3, 0.02, 3)) }},
		{"PowerGrid", func() (*graph.Graph, error) { return PowerGrid(6, 6, 2, 3) }},
	} {
		a, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ha, hb := a.ContentHash(), b.ContentHash(); ha != hb {
			t.Errorf("%s: two calls with one seed hash %s and %s", c.name, ha, hb)
		}
	}
}
