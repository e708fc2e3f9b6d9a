package vecmath

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xorshift128+ with a splitmix64-seeded state). Every randomized routine
// in graphspar threads an explicit *RNG so experiments are reproducible
// run-to-run, as DESIGN.md requires. The zero value is not valid; use
// NewRNG.
type RNG struct {
	s0, s1 uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	// splitmix64 expansion of the seed into two nonzero state words.
	sm := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r := &RNG{s0: sm(), s1: sm()}
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
	return r
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("vecmath: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal sample (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// FillRademacher fills x with ±1 entries. Rademacher start vectors are the
// standard choice for stochastic trace/Joule-heat estimators (eq. 12 uses
// r of them).
func (r *RNG) FillRademacher(x []float64) {
	for i := range x {
		if r.Uint64()&1 == 0 {
			x[i] = 1
		} else {
			x[i] = -1
		}
	}
}

// FillNormal fills x with standard normal entries.
func (r *RNG) FillNormal(x []float64) {
	for i := range x {
		x[i] = r.NormFloat64()
	}
}
