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

func TestEmbedLimits(t *testing.T) {
	lim := Limits{MaxT: 4, MaxNumVectors: 8}
	// Non-positive values mean "use the default" and always pass.
	for _, c := range [][2]int{{0, 0}, {-3, -1}, {4, 8}, {1, 1}} {
		if err := Embed(c[0], c[1], lim); err != nil {
			t.Errorf("Embed(%d, %d) = %v, want nil", c[0], c[1], err)
		}
	}
	if err := Embed(5, 1, lim); !errors.Is(err, ErrBadT) {
		t.Errorf("t over limit: %v, want ErrBadT", err)
	}
	if err := Embed(1, 9, lim); !errors.Is(err, ErrBadNumVectors) {
		t.Errorf("r over limit: %v, want ErrBadNumVectors", err)
	}
	// The zero Limits is unlimited.
	if err := Embed(1<<20, 1<<20, Limits{}); err != nil {
		t.Errorf("unlimited Embed: %v", err)
	}
}

func TestShardingLimits(t *testing.T) {
	if err := Sharding(-1, 0, Limits{}); !errors.Is(err, ErrBadShards) {
		t.Errorf("negative shards: %v, want ErrBadShards", err)
	}
	lim := Limits{MaxShards: 16, MaxWorkers: 8}
	if err := Sharding(17, 1, lim); !errors.Is(err, ErrBadShards) {
		t.Errorf("shards over limit: %v, want ErrBadShards", err)
	}
	if err := Sharding(4, 9, lim); !errors.Is(err, ErrBadWorkers) {
		t.Errorf("workers over limit: %v, want ErrBadWorkers", err)
	}
	for _, c := range [][2]int{{0, 0}, {16, 8}, {1, -4}} {
		if err := Sharding(c[0], c[1], lim); err != nil {
			t.Errorf("Sharding(%d, %d) = %v, want nil", c[0], c[1], err)
		}
	}
}
