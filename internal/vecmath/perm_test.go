package vecmath_test

import (
	"testing"

	"graphspar/internal/testkit/matrix"
	"graphspar/internal/vecmath"
)

// TestPerm checks the tests' random permutation (matrix.Perm, drawn from
// this package's RNG) next to the RNG's own tests.
func TestPerm(t *testing.T) {
	p := matrix.Perm(vecmath.NewRNG(6), 50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation at %d", v)
		}
		seen[v] = true
	}
}
