// Package params holds the sparsification parameter rules that more than
// one layer shares: the σ² check every pipeline runs (internal/core,
// internal/engine, internal/dynamic and the HTTP service's wire format),
// the execution-mode parse of the facade and the service, and the typed
// errors all of them return. The service maps ErrInvalid to HTTP 400 instead of
// string-matching, and the public facade re-exports the sentinels for
// library users. Knob ceilings for remote callers live with the wire
// knob table in internal/service.
package params

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalid is the base class of every validation error in this package:
// errors.Is(err, ErrInvalid) holds for all of the sentinels below, so a
// transport layer can map the whole family to one status code while still
// distinguishing individual causes.
var ErrInvalid = errors.New("invalid sparsification parameters")

// Typed validation errors. Each wraps ErrInvalid.
var (
	// ErrBadSigma2 rejects similarity targets σ² ≤ 1 — the relative
	// condition number κ(L_G, L_P) of a subgraph sparsifier is at least 1,
	// so no target at or below 1 is satisfiable — and non-finite ones.
	ErrBadSigma2 = fmt.Errorf("%w: similarity target σ² must be > 1", ErrInvalid)
	// ErrBadShards rejects the shard counts the facade's deprecated
	// WithShards cannot map onto a mode: any but 0, 1 and the sharded
	// plan's fixed arity.
	ErrBadShards = fmt.Errorf("%w: shard count out of range", ErrInvalid)
	// ErrBadWorkers rejects worker counts beyond a ceiling; zero and
	// negative mean "all cores".
	ErrBadWorkers = fmt.Errorf("%w: worker count out of range", ErrInvalid)
	// ErrBadCombination rejects structurally valid knobs that cannot be
	// used together (e.g. mode multilevel on a persistent session).
	ErrBadCombination = fmt.Errorf("%w: incompatible options", ErrInvalid)
)

// Sigma2 validates the similarity target shared by every pipeline: a
// finite number above 1 (NaN fails the comparison; +Inf would accept the
// bare backbone tree as "similar").
func Sigma2(sigmaSq float64) error {
	if !(sigmaSq > 1) || math.IsInf(sigmaSq, 1) {
		return fmt.Errorf("%w: got %v", ErrBadSigma2, sigmaSq)
	}
	return nil
}
