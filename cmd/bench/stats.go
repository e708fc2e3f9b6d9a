package main

import (
	"errors"
	"math"
	"sort"
)

// minTail is the order-statistics rule of the benchmark: a percentile is
// reported only when at least this many samples lie beyond it, and no
// statistic at all is computed from fewer samples than this.
const minTail = 10

var errTooFewSamples = errors.New("bench: fewer than 10 samples beyond the requested percentile")

// percentile returns the q-quantile (nearest rank) of samples. It refuses
// when the sample is smaller than minTail or fewer than minTail samples
// lie at or beyond the quantile — a tail read off one or two values is
// jitter, not a measurement.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n < minTail || q <= 0 || q >= 1 {
		return 0, errTooFewSamples
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if q > 0.5 && n-rank < minTail {
		return 0, errTooFewSamples
	}
	s := sortedCopy(samples)
	return s[rank-1], nil
}

// median is the plain middle value (mean of the two middle values for an
// even count). Unlike percentile it accepts any non-empty sample: per-layer
// probes and the traced quarter-length schedule have few repetitions.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := sortedCopy(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2, Q3 by the exclusive method, the one Python's
// statistics.quantiles(values, n=4) uses, so the spread table of -runs and
// -check is the number the driver computes.
func quartiles(samples []float64) (q1, q2, q3 float64) {
	s := sortedCopy(samples)
	n := len(s)
	if n < 2 {
		v := median(s)
		return v, v, v
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(samples []float64) float64 {
	q1, q2, q3 := quartiles(samples)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}
