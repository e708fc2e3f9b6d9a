package matrix_test

// Permute, the symmetric permutation the reference factorization in
// internal/cholesky factors, against a hand-checked case and the COO
// Builder route it replaced.

import (
	"reflect"
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

func TestPermute(t *testing.T) {
	m := small3()
	perm := []int{2, 1, 0} // reverse
	p, err := matrix.Permute(m, perm)
	if err != nil {
		t.Fatal(err)
	}
	// Entry (0,0) of result = (2,2) of original = 2; (0,1) = (2,1) = -1.
	if p.At(0, 0) != 2 || p.At(0, 1) != -1 || p.At(1, 1) != 3 {
		t.Fatalf("Permute wrong: %v", matrix.Dense(p))
	}
	if !p.IsSymmetric(0) {
		t.Fatal("symmetric permutation should preserve symmetry")
	}
}

func TestPermuteBad(t *testing.T) {
	m := small3()
	if _, err := matrix.Permute(m, []int{0, 1}); err == nil {
		t.Fatal("expected error for short perm")
	}
	if _, err := matrix.Permute(m, []int{0, 1, 9}); err == nil {
		t.Fatal("expected error for out-of-range perm")
	}
	// In range but not a permutation: used to return a scrambled matrix.
	if _, err := matrix.Permute(m, []int{0, 0, 1}); err == nil {
		t.Fatal("expected error for perm with a repeated entry")
	}
}

// permuteViaBuilder is Permute as it was before the counting-sort
// rewrite — every entry through a COO Builder and its global sort — kept
// as the property test's oracle.
func permuteViaBuilder(m *sparse.CSR, perm []int) *sparse.CSR {
	inv := make([]int, len(perm))
	for newIdx, oldIdx := range perm {
		inv[oldIdx] = newIdx
	}
	bld := sparse.NewBuilder(m.Rows, m.Cols)
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
		b := sparse.NewBuilder(n, n)
		for k := rng.Intn(4 * n); k > 0; k-- {
			b.Add(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
		}
		m := b.Build()
		if m.NNZ() > 0 {
			m.Val[rng.Intn(m.NNZ())] = 0 // an explicit stored zero
		}
		perm := matrix.Perm(rng, n)
		got, err := matrix.Permute(m, perm)
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
	m := &sparse.CSR{Rows: 3, Cols: 3, RowPtr: []int{0, 2, 4, 6},
		ColIdx: []int{0, 1, 1, 2, 0, 2}, Val: []float64{1, 2, 0, 3, 4, 5}}
	perm := []int{2, 0, 1}
	got, err := matrix.Permute(m, perm)
	if err != nil {
		t.Fatal(err)
	}
	want := &sparse.CSR{Rows: 3, Cols: 3, RowPtr: []int{0, 2, 4, 5},
		ColIdx: []int{0, 1, 1, 2, 0}, Val: []float64{5, 4, 1, 2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Permute = %+v, want %+v", got, want)
	}
	if !reflect.DeepEqual(got, permuteViaBuilder(m, perm)) {
		t.Fatal("Permute differs from the Builder route")
	}
}
