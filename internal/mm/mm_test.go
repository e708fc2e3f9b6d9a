package mm

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"graphspar/internal/graph"
	"graphspar/internal/testkit/matrix"
)

const symFile = `%%MatrixMarket matrix coordinate real symmetric
% comment line
3 3 4
1 1 2.0
2 1 -1.0
2 2 2.0
3 2 -0.5
`

func TestReadSymmetric(t *testing.T) {
	m, err := Read(strings.NewReader(symFile))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 3 || len(m.Entries) != 4 {
		t.Fatalf("parsed %dx%d nnz=%d", m.Rows, m.Cols, len(m.Entries))
	}
	if m.Sym != Symmetric || m.Pattern {
		t.Fatalf("sym=%v pattern=%v", m.Sym, m.Pattern)
	}
	c := m.CSR()
	// Symmetry expansion: (1,2) mirrors (2,1).
	if c.At(0, 1) != -1 || c.At(1, 0) != -1 {
		t.Fatalf("symmetry not expanded: %v %v", c.At(0, 1), c.At(1, 0))
	}
}

func TestReadPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern symmetric
2 2 1
2 1
`
	m, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Pattern || m.Entries[0].Val != 1 {
		t.Fatalf("pattern entry should default to 1, got %+v", m.Entries[0])
	}
	g, err := m.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 || g.Edge(0).W != 1 {
		t.Fatalf("pattern graph edge %+v", g.Edge(0))
	}
}

func TestReadGeneral(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
2 2 3
1 1 4
1 2 -3
2 1 5
`
	m, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	// Both (1,2) and (2,1) map to the same undirected edge; dominant
	// magnitude wins: |5| > |-3|.
	if g.M() != 1 || g.Edge(0).W != 5 {
		t.Fatalf("general graph edge %+v", g.Edge(0))
	}
}

func TestReadSkewSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3
`
	m, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	c := m.CSR()
	if c.At(0, 1) != -3 || c.At(1, 0) != 3 {
		t.Fatalf("skew expansion wrong: %v %v", c.At(0, 1), c.At(1, 0))
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, src string
		want      error
	}{
		{"empty", "", ErrFormat},
		{"badheader", "hello\n", ErrFormat},
		{"array", "%%MatrixMarket matrix array real general\n2 2 4\n", ErrUnsupported},
		{"complex", "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n", ErrUnsupported},
		{"hermitian", "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n", ErrUnsupported},
		{"missingsize", "%%MatrixMarket matrix coordinate real general\n", ErrFormat},
		{"badsize", "%%MatrixMarket matrix coordinate real general\n2 2\n", ErrFormat},
		{"shortentries", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n", ErrFormat},
		{"oob", "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n", ErrFormat},
		{"badnum", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 xyz\n", ErrFormat},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(c.src))
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
}

func TestToGraphRequiresSquare(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
2 3 1
1 2 1
`
	m, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ToGraph(); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

func TestToGraphDropsDiagonalAndZeros(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
3 3 4
1 1 10
2 1 -2
3 1 0
3 3 5
`
	m, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 (diagonal and zero entries dropped)", g.M())
	}
	if e := g.Edge(0); e.U != 0 || e.V != 1 || e.W != 2 {
		t.Fatalf("edge = %+v, want {0 1 2} (abs value)", e)
	}
}

func TestWriteGraphRoundTrip(t *testing.T) {
	g, err := graph.New(4, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 0.5}, {U: 2, V: 3, W: 3}, {U: 0, V: 3, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	m, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := m.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed shape: n=%d m=%d", g2.N(), g2.M())
	}
	for i := 0; i < g.M(); i++ {
		if g.Edge(i) != g2.Edge(i) {
			t.Fatalf("edge %d changed: %+v vs %+v", i, g.Edge(i), g2.Edge(i))
		}
	}
}

func TestWriteEdgeListRoundTrip(t *testing.T) {
	g, err := graph.New(3, []graph.Edge{{U: 0, V: 1, W: 1.25}, {U: 1, V: 2, W: 4}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	m, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := m.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.M(); i++ {
		if g.Edge(i) != g2.Edge(i) {
			t.Fatalf("edge %d changed: %+v vs %+v", i, g.Edge(i), g2.Edge(i))
		}
	}
}

func TestLaplacianExportIsLaplacian(t *testing.T) {
	g, err := graph.New(3, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	m, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c := m.CSR()
	// Row sums must vanish for a Laplacian.
	d := matrix.Dense(c)
	for i := range d {
		var s float64
		for _, v := range d[i] {
			s += v
		}
		if s != 0 {
			t.Fatalf("row %d sum = %v, want 0", i, s)
		}
	}
}
