package sparse

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"graphspar/internal/vecmath"
)

// small3 returns the symmetric matrix
//
//	[ 2 -1  0]
//	[-1  3 -1]
//	[ 0 -1  2]
func small3() *CSR {
	b := NewBuilder(3, 3)
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
	b := NewBuilder(2, 2)
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
	b := NewBuilder(1, 1)
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
	NewBuilder(2, 2).Add(2, 0, 1)
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
	b := NewBuilder(2, 3)
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
	d, err := FrobeniusDiff(m, tt)
	if err != nil || d != 0 {
		t.Fatalf("Mᵀᵀ != M (diff=%v, err=%v)", d, err)
	}
}

func TestIsSymmetric(t *testing.T) {
	if !small3().IsSymmetric(0) {
		t.Fatal("small3 should be symmetric")
	}
	b := NewBuilder(2, 2)
	b.Add(0, 1, 1)
	if b.Build().IsSymmetric(1e-15) {
		t.Fatal("upper-only matrix is not symmetric")
	}
}

func TestAddSub(t *testing.T) {
	m := small3()
	s, err := Add(m, m)
	if err != nil {
		t.Fatal(err)
	}
	if s.At(1, 1) != 6 {
		t.Fatalf("Add diag = %v, want 6", s.At(1, 1))
	}
	z, err := Sub(m, m)
	if err != nil {
		t.Fatal(err)
	}
	if z.NNZ() != 0 {
		t.Fatalf("M-M should be empty, NNZ=%d", z.NNZ())
	}
}

func TestAddShapeError(t *testing.T) {
	a := Identity(2)
	b := Identity(3)
	if _, err := Add(a, b); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestMulIdentity(t *testing.T) {
	m := small3()
	p, err := Mul(m, Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	d, _ := FrobeniusDiff(m, p)
	if d != 0 {
		t.Fatalf("M·I != M, diff %v", d)
	}
}

func TestMulKnown(t *testing.T) {
	// [1 2; 0 3] * [0 1; 4 0] = [8 1; 12 0]
	a := NewBuilder(2, 2)
	a.Add(0, 0, 1)
	a.Add(0, 1, 2)
	a.Add(1, 1, 3)
	b := NewBuilder(2, 2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 4)
	p, err := Mul(a.Build(), b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if p.At(0, 0) != 8 || p.At(0, 1) != 1 || p.At(1, 0) != 12 || p.At(1, 1) != 0 {
		t.Fatalf("Mul wrong: %v", p.Dense())
	}
}

func TestMulShapeError(t *testing.T) {
	if _, err := Mul(Identity(2), Identity(3)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestPermute(t *testing.T) {
	m := small3()
	perm := []int{2, 1, 0} // reverse
	p, err := m.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	// Entry (0,0) of result = (2,2) of original = 2; (0,1) = (2,1) = -1.
	if p.At(0, 0) != 2 || p.At(0, 1) != -1 || p.At(1, 1) != 3 {
		t.Fatalf("Permute wrong: %v", p.Dense())
	}
	if !p.IsSymmetric(0) {
		t.Fatal("symmetric permutation should preserve symmetry")
	}
}

func TestPermuteBad(t *testing.T) {
	m := small3()
	if _, err := m.Permute([]int{0, 1}); err == nil {
		t.Fatal("expected error for short perm")
	}
	if _, err := m.Permute([]int{0, 1, 9}); err == nil {
		t.Fatal("expected error for out-of-range perm")
	}
	// In range but not a permutation: used to return a scrambled matrix.
	if _, err := m.Permute([]int{0, 0, 1}); err == nil {
		t.Fatal("expected error for perm with a repeated entry")
	}
}

// permuteViaBuilder is Permute as it was before the counting-sort
// rewrite — every entry through a COO Builder and its global sort — kept
// as the property test's oracle.
func permuteViaBuilder(m *CSR, perm []int) *CSR {
	inv := make([]int, len(perm))
	for newIdx, oldIdx := range perm {
		inv[oldIdx] = newIdx
	}
	bld := NewBuilder(m.Rows, m.Cols)
	for newI, oldI := range perm {
		for k := m.RowPtr[oldI]; k < m.RowPtr[oldI+1]; k++ {
			bld.Add(newI, inv[m.ColIdx[k]], m.Val[k])
		}
	}
	return bld.Build()
}

// Property: the counting-sort Permute returns exactly the matrix the
// Builder route did — same pattern, same value bits, explicit zeros
// dropped — on unsymmetric patterns too.
func TestQuickPermuteMatchesBuilder(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vecmath.NewRNG(seed)
		n := 1 + rng.Intn(30)
		b := NewBuilder(n, n)
		for k := rng.Intn(4 * n); k > 0; k-- {
			b.Add(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
		}
		m := b.Build()
		if m.NNZ() > 0 {
			m.Val[rng.Intn(m.NNZ())] = 0 // an explicit stored zero
		}
		perm := rng.Perm(n)
		got, err := m.Permute(perm)
		return err == nil && reflect.DeepEqual(got, permuteViaBuilder(m, perm))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteUnsymmetricWithStoredZero(t *testing.T) {
	// [ 1 2 0 ]            rows/cols reordered (2,0,1), the stored
	// [ 0 0 3 ]  (1,1)=0   zero dropped:
	// [ 4 0 5 ]  stored    [5 4 0; 0 1 2; 3 0 0]
	m := &CSR{Rows: 3, Cols: 3, RowPtr: []int{0, 2, 4, 6},
		ColIdx: []int{0, 1, 1, 2, 0, 2}, Val: []float64{1, 2, 0, 3, 4, 5}}
	perm := []int{2, 0, 1}
	got, err := m.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	want := &CSR{Rows: 3, Cols: 3, RowPtr: []int{0, 2, 4, 5},
		ColIdx: []int{0, 1, 1, 2, 0}, Val: []float64{5, 4, 1, 2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Permute = %+v, want %+v", got, want)
	}
	if !reflect.DeepEqual(got, permuteViaBuilder(m, perm)) {
		t.Fatal("Permute differs from the Builder route")
	}
}

func TestScaleClone(t *testing.T) {
	m := small3()
	s := m.Scale(2)
	if s.At(1, 1) != 6 || m.At(1, 1) != 3 {
		t.Fatal("Scale must not mutate the receiver")
	}
	c := m.Clone()
	c.Val[0] = 99
	if m.Val[0] == 99 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestDense(t *testing.T) {
	d := small3().Dense()
	if d[0][0] != 2 || d[0][1] != -1 || d[0][2] != 0 {
		t.Fatalf("Dense row 0 = %v", d[0])
	}
}

// Property: (A+B)x == Ax + Bx for random sparse A, B.
func TestQuickAddLinear(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vecmath.NewRNG(seed)
		n := 2 + rng.Intn(15)
		mk := func() *CSR {
			b := NewBuilder(n, n)
			for e := 0; e < 2*n; e++ {
				b.Add(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
			}
			return b.Build()
		}
		a, bm := mk(), mk()
		s, err := Add(a, bm)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		rng.FillNormal(x)
		y1 := make([]float64, n)
		y2 := make([]float64, n)
		tmp := make([]float64, n)
		s.MulVec(y1, x)
		a.MulVec(y2, x)
		bm.MulVec(tmp, x)
		vecmath.Axpy(1, tmp, y2)
		for i := range y1 {
			if math.Abs(y1[i]-y2[i]) > 1e-9*(1+math.Abs(y1[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Mul matches dense reference on small random matrices.
func TestQuickMulMatchesDense(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vecmath.NewRNG(seed)
		n, m, p := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		mk := func(r, c int) *CSR {
			b := NewBuilder(r, c)
			for e := 0; e < r*c/2+1; e++ {
				b.Add(rng.Intn(r), rng.Intn(c), float64(rng.Intn(9))-4)
			}
			return b.Build()
		}
		a, bm := mk(n, m), mk(m, p)
		prod, err := Mul(a, bm)
		if err != nil {
			return false
		}
		ad, bd, pd := a.Dense(), bm.Dense(), prod.Dense()
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
	bb := NewBuilder(n, n)
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
