package params

import (
	"errors"
	"math"
	"testing"
)

func TestSigma2(t *testing.T) {
	for _, bad := range []float64{-1, 0, 0.5, 1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := Sigma2(bad)
		if !errors.Is(err, ErrBadSigma2) {
			t.Errorf("Sigma2(%v) = %v, want ErrBadSigma2", bad, err)
		}
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("Sigma2(%v) must match ErrInvalid", bad)
		}
	}
	for _, ok := range []float64{1.0001, 50, 1e9} {
		if err := Sigma2(ok); err != nil {
			t.Errorf("Sigma2(%v) = %v, want nil", ok, err)
		}
	}
}
