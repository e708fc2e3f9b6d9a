package vecmath

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y); got != 12 {
		t.Fatalf("Dot = %v, want 12", got)
	}
}

func TestDotEmpty(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
}

func TestNorm2Extremes(t *testing.T) {
	// Values whose squares would overflow naive accumulation.
	big := 1e200
	got := Norm2([]float64{big, big})
	want := big * math.Sqrt(2)
	if !almostEqual(got, want, 1e-12) {
		t.Fatalf("Norm2 overflow-safe = %v, want %v", got, want)
	}
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, -4}, y)
	if y[0] != 7 || y[1] != -7 {
		t.Fatalf("Axpy = %v, want [7 -7]", y)
	}
}

func TestScaleZeroSum(t *testing.T) {
	x := []float64{1, 2, 3}
	Scale(2, x)
	if Sum(x) != 12 {
		t.Fatalf("Sum after Scale = %v, want 12", Sum(x))
	}
	Zero(x)
	if Sum(x) != 0 {
		t.Fatalf("Sum after Zero = %v, want 0", Sum(x))
	}
}

func TestMeanDeflate(t *testing.T) {
	x := []float64{1, 2, 3, 6}
	if got := Mean(x); got != 3 {
		t.Fatalf("Mean = %v, want 3", got)
	}
	Deflate(x)
	if !almostEqual(Sum(x), 0, 1e-15) {
		t.Fatalf("Sum after Deflate = %v, want 0", Sum(x))
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestNormalize(t *testing.T) {
	x := []float64{0, 3, 4}
	n := Normalize(x)
	if n != 5 {
		t.Fatalf("Normalize returned %v, want 5", n)
	}
	if !almostEqual(Norm2(x), 1, 1e-15) {
		t.Fatalf("norm after Normalize = %v, want 1", Norm2(x))
	}
	z := []float64{0, 0}
	if got := Normalize(z); got != 0 {
		t.Fatalf("Normalize(zero) = %v, want 0", got)
	}
}

func TestSubAdd(t *testing.T) {
	x := []float64{5, 6}
	y := []float64{2, 3}
	d := make([]float64, 2)
	Sub(d, x, y)
	if d[0] != 3 || d[1] != 3 {
		t.Fatalf("Sub = %v", d)
	}
	Add(d, x, y)
	if d[0] != 7 || d[1] != 9 {
		t.Fatalf("Add = %v", d)
	}
}

func TestRelResidual(t *testing.T) {
	if got := RelResidual([]float64{3, 4}, []float64{0, 10}); got != 0.5 {
		t.Fatalf("RelResidual = %v, want 0.5", got)
	}
	// Zero b treated as norm 1.
	if got := RelResidual([]float64{2}, []float64{0}); got != 2 {
		t.Fatalf("RelResidual zero-b = %v, want 2", got)
	}
}

// Property: Cauchy–Schwarz |<x,y>| <= ||x||·||y||.
func TestQuickCauchySchwarz(t *testing.T) {
	f := func(a, b [8]float64) bool {
		x, y := a[:], b[:]
		for i := range x { // keep magnitudes sane
			x[i] = math.Mod(x[i], 1e6)
			y[i] = math.Mod(y[i], 1e6)
		}
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)*(1+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Deflate is idempotent (up to scale-relative rounding) and
// leaves differences intact.
func TestQuickDeflateIdempotent(t *testing.T) {
	f := func(a [6]float64) bool {
		x := a[:]
		scale := 1.0
		for i := range x {
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
				x[i] = 0
			}
			x[i] = math.Mod(x[i], 1e9)
			if v := math.Abs(x[i]); v > scale {
				scale = v
			}
		}
		d0 := x[1] - x[0]
		Deflate(x)
		s1 := Sum(x)
		Deflate(x)
		// Both sums are pure rounding residue; bound them by the data
		// scale rather than comparing the two tiny numbers to each other.
		eps := 1e-12 * scale
		return math.Abs(Sum(x)) <= math.Abs(s1)+eps && almostEqual(x[1]-x[0], d0, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(2)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %v", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) should hit every residue, got %d", len(seen))
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFillRademacher(t *testing.T) {
	r := NewRNG(3)
	x := make([]float64, 4096)
	r.FillRademacher(x)
	var plus int
	for _, v := range x {
		if v != 1 && v != -1 {
			t.Fatalf("non-Rademacher entry %v", v)
		}
		if v == 1 {
			plus++
		}
	}
	// Crude balance check: expect ~2048 ± 5 sigma (sigma = 32).
	if plus < 2048-160 || plus > 2048+160 {
		t.Fatalf("Rademacher imbalance: %d of %d positive", plus, len(x))
	}
}

func TestFillNormalMoments(t *testing.T) {
	r := NewRNG(4)
	x := make([]float64, 20000)
	r.FillNormal(x)
	m := Mean(x)
	var varsum float64
	for _, v := range x {
		varsum += (v - m) * (v - m)
	}
	variance := varsum / float64(len(x)-1)
	if math.Abs(m) > 0.05 {
		t.Fatalf("normal mean too far from 0: %v", m)
	}
	if math.Abs(variance-1) > 0.08 {
		t.Fatalf("normal variance too far from 1: %v", variance)
	}
}

func TestPerm(t *testing.T) {
	r := NewRNG(6)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation at %d", v)
		}
		seen[v] = true
	}
}

func BenchmarkDot(b *testing.B) {
	x := make([]float64, 1<<16)
	y := make([]float64, 1<<16)
	NewRNG(1).FillNormal(x)
	NewRNG(2).FillNormal(y)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}
