package sparse_test

// The CSR API from outside the package, and the matrix helpers other
// packages' tests share (internal/testkit/matrix: Mul, Dense,
// FrobeniusDiff, Perm) next to the CSR operations they mirror. Permute's
// tests live with it in internal/testkit/matrix.

import (
	"math"
	"testing"
	"testing/quick"

	"graphspar/internal/sparse"
	"graphspar/internal/testkit/matrix"
	"graphspar/internal/vecmath"
)

// small3 returns the symmetric matrix
//
//	[ 2 -1  0]
//	[-1  3 -1]
//	[ 0 -1  2]
func small3() *sparse.CSR {
	b := sparse.NewBuilder(3, 3)
	b.Add(0, 0, 2)
	b.Add(0, 1, -1)
	b.Add(1, 0, -1)
	b.Add(1, 1, 3)
	b.Add(1, 2, -1)
	b.Add(2, 1, -1)
	b.Add(2, 2, 2)
	return b.Build()
}

func TestBuilderSumsDuplicates(t *testing.T) {
	b := sparse.NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2.5)
	b.Add(1, 1, -4)
	m := b.Build()
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
	if m.At(0, 0) != 3.5 || m.At(1, 1) != -4 {
		t.Fatalf("wrong values: %v %v", m.At(0, 0), m.At(1, 1))
	}
}

func TestBuilderDropsCancelledZeros(t *testing.T) {
	b := sparse.NewBuilder(1, 1)
	b.Add(0, 0, 5)
	b.Add(0, 0, -5)
	m := b.Build()
	if m.NNZ() != 0 {
		t.Fatalf("NNZ = %d, want 0 after cancellation", m.NNZ())
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sparse.NewBuilder(2, 2).Add(2, 0, 1)
}

func TestAtAndMissing(t *testing.T) {
	m := small3()
	if m.At(0, 2) != 0 {
		t.Fatalf("missing entry should read 0")
	}
	if m.At(1, 1) != 3 {
		t.Fatalf("At(1,1) = %v, want 3", m.At(1, 1))
	}
}

func TestMulVec(t *testing.T) {
	m := small3()
	x := []float64{1, 2, 3}
	y := make([]float64, 3)
	m.MulVec(y, x)
	want := []float64{0, 2, 4}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MulVec = %v, want %v", y, want)
		}
	}
}

func TestTranspose(t *testing.T) {
	b := sparse.NewBuilder(2, 3)
	b.Add(0, 1, 5)
	b.Add(1, 2, 7)
	m := b.Build()
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(1, 0) != 5 || tr.At(2, 1) != 7 {
		t.Fatalf("transpose values wrong")
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := small3()
	tt := m.Transpose().Transpose()
	d, err := matrix.FrobeniusDiff(m, tt)
	if err != nil || d != 0 {
		t.Fatalf("Mᵀᵀ != M (diff=%v, err=%v)", d, err)
	}
}

func TestIsSymmetric(t *testing.T) {
	if !small3().IsSymmetric(0) {
		t.Fatal("small3 should be symmetric")
	}
	b := sparse.NewBuilder(2, 2)
	b.Add(0, 1, 1)
	if b.Build().IsSymmetric(1e-15) {
		t.Fatal("upper-only matrix is not symmetric")
	}
}

func TestMulIdentity(t *testing.T) {
	m := small3()
	id := sparse.NewBuilder(3, 3)
	for i := range 3 {
		id.Add(i, i, 1)
	}
	p, err := matrix.Mul(m, id.Build())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := matrix.FrobeniusDiff(m, p)
	if d != 0 {
		t.Fatalf("M·I != M, diff %v", d)
	}
}

func TestMulKnown(t *testing.T) {
	// [1 2; 0 3] * [0 1; 4 0] = [8 1; 12 0]
	a := sparse.NewBuilder(2, 2)
	a.Add(0, 0, 1)
	a.Add(0, 1, 2)
	a.Add(1, 1, 3)
	b := sparse.NewBuilder(2, 2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 4)
	p, err := matrix.Mul(a.Build(), b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if p.At(0, 0) != 8 || p.At(0, 1) != 1 || p.At(1, 0) != 12 || p.At(1, 1) != 0 {
		t.Fatalf("Mul wrong: %v", matrix.Dense(p))
	}
}

func TestMulShapeError(t *testing.T) {
	if _, err := matrix.Mul(sparse.NewBuilder(2, 2).Build(), sparse.NewBuilder(3, 3).Build()); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestDense(t *testing.T) {
	d := matrix.Dense(small3())
	if d[0][0] != 2 || d[0][1] != -1 || d[0][2] != 0 {
		t.Fatalf("Dense row 0 = %v", d[0])
	}
}

// Property: Mul matches dense reference on small random matrices.
func TestQuickMulMatchesDense(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vecmath.NewRNG(seed)
		n, m, p := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		mk := func(r, c int) *sparse.CSR {
			b := sparse.NewBuilder(r, c)
			for e := 0; e < r*c/2+1; e++ {
				b.Add(rng.Intn(r), rng.Intn(c), float64(rng.Intn(9))-4)
			}
			return b.Build()
		}
		a, bm := mk(n, m), mk(m, p)
		prod, err := matrix.Mul(a, bm)
		if err != nil {
			return false
		}
		ad, bd, pd := matrix.Dense(a), matrix.Dense(bm), matrix.Dense(prod)
		for i := 0; i < n; i++ {
			for j := 0; j < p; j++ {
				var s float64
				for k := 0; k < m; k++ {
					s += ad[i][k] * bd[k][j]
				}
				if math.Abs(s-pd[i][j]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMulVec(b *testing.B) {
	// Pentadiagonal matrix of dimension 1<<14.
	n := 1 << 14
	bb := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		bb.Add(i, i, 4)
		if i+1 < n {
			bb.Add(i, i+1, -1)
			bb.Add(i+1, i, -1)
		}
		if i+128 < n {
			bb.Add(i, i+128, -1)
			bb.Add(i+128, i, -1)
		}
	}
	m := bb.Build()
	x := make([]float64, n)
	y := make([]float64, n)
	vecmath.NewRNG(7).FillNormal(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(y, x)
	}
}
