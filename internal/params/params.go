// Package params centralizes validation of the sparsification parameters
// shared by the edge filter (internal/core), the batch pipeline
// (internal/engine), the incremental maintainer (internal/dynamic) and the
// HTTP service's wire format (internal/service). Each of those packages
// used to run its own copy of the same checks with its own error strings;
// keeping one validator here gives every layer the same semantics and
// gives callers typed errors they can branch on — the service maps
// ErrInvalid to HTTP 400 instead of string-matching, and the public
// facade re-exports the sentinels for library users.
//
// Validation is deliberately permissive about zero and negative knob
// values: throughout the codebase a non-positive t, r, rounds or worker
// count means "use the default", so the validators only reject values
// that can never be defaulted away (a σ² that breaks the similarity
// guarantee, a negative shard count, knobs beyond a caller-supplied
// ceiling).
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
	// ErrBadT rejects embedding step counts beyond a caller's ceiling.
	ErrBadT = fmt.Errorf("%w: embedding steps t out of range", ErrInvalid)
	// ErrBadNumVectors rejects probe-vector counts beyond a ceiling.
	ErrBadNumVectors = fmt.Errorf("%w: probe vector count r out of range", ErrInvalid)
	// ErrBadShards rejects negative shard counts (and counts beyond a
	// ceiling); zero means "pick the default".
	ErrBadShards = fmt.Errorf("%w: shard count out of range", ErrInvalid)
	// ErrBadWorkers rejects worker counts beyond a ceiling; zero and
	// negative mean "all cores".
	ErrBadWorkers = fmt.Errorf("%w: worker count out of range", ErrInvalid)
	// ErrBadCombination rejects structurally valid knobs that cannot be
	// used together (e.g. an edge budget on a sharded run).
	ErrBadCombination = fmt.Errorf("%w: incompatible options", ErrInvalid)
)

// Limits bounds remotely-submitted work. A zero field means unlimited;
// in-process callers (the CLIs, the library facade) validate with the
// zero Limits, while the HTTP service passes its wire ceilings so a
// remote client cannot submit unbounded per-job CPU work.
type Limits struct {
	MaxT          int
	MaxNumVectors int
	MaxShards     int
	MaxWorkers    int
}

// Sigma2 validates the similarity target shared by every pipeline: a
// finite number above 1 (NaN fails the comparison; +Inf would accept the
// bare backbone tree as "similar").
func Sigma2(sigmaSq float64) error {
	if !(sigmaSq > 1) || math.IsInf(sigmaSq, 1) {
		return fmt.Errorf("%w: got %v", ErrBadSigma2, sigmaSq)
	}
	return nil
}

// Embed validates the embedding knobs (power-iteration steps t and probe
// vector count r). Non-positive values mean "use the default" and always
// pass; only values beyond the limits fail.
func Embed(t, numVectors int, lim Limits) error {
	if lim.MaxT > 0 && t > lim.MaxT {
		return fmt.Errorf("%w: t must be at most %d, got %d", ErrBadT, lim.MaxT, t)
	}
	if lim.MaxNumVectors > 0 && numVectors > lim.MaxNumVectors {
		return fmt.Errorf("%w: r must be at most %d, got %d", ErrBadNumVectors, lim.MaxNumVectors, numVectors)
	}
	return nil
}

// Sharding validates the engine fan-out knobs. Negative shard counts are
// invalid everywhere (zero means "default"); workers only fail beyond a
// ceiling since any non-positive value means "all cores".
func Sharding(shards, workers int, lim Limits) error {
	if shards < 0 {
		return fmt.Errorf("%w: got %d", ErrBadShards, shards)
	}
	if lim.MaxShards > 0 && shards > lim.MaxShards {
		return fmt.Errorf("%w: shards must be at most %d, got %d", ErrBadShards, lim.MaxShards, shards)
	}
	if lim.MaxWorkers > 0 && workers > lim.MaxWorkers {
		return fmt.Errorf("%w: workers must be at most %d, got %d", ErrBadWorkers, lim.MaxWorkers, workers)
	}
	return nil
}
