package graphspar

import (
	"graphspar/internal/core"
	"graphspar/internal/dynamic"
	"graphspar/internal/graph"
	"graphspar/internal/params"
)

// Sentinel errors. These alias the sentinels of the underlying pipelines,
// so errors.Is works the same whether an error crossed the facade or not.
var (
	// ErrInvalidOptions is the base class of every option-validation
	// error: errors.Is(err, ErrInvalidOptions) matches all of the
	// ErrBad* sentinels below.
	ErrInvalidOptions = params.ErrInvalid
	// ErrBadSigma2 rejects similarity targets σ² ≤ 1 (including the
	// missing-WithSigma2 zero value) and non-finite ones.
	ErrBadSigma2 = params.ErrBadSigma2
	// ErrBadShards rejects negative shard counts.
	ErrBadShards = params.ErrBadShards
	// ErrNoTarget is returned by Run (with a usable best-effort Result)
	// when the round budget is exhausted before the σ² target is met.
	ErrNoTarget = core.ErrNoTarget
	// ErrDisconnected rejects disconnected input graphs.
	ErrDisconnected = graph.ErrDisconnected
	// ErrWouldDisconnect rejects an update batch whose deletes would
	// disconnect the graph (Stream.Apply, ApplyUpdates).
	ErrWouldDisconnect = dynamic.ErrWouldDisconnect
	// ErrEdgeExists rejects inserting an edge that already exists.
	ErrEdgeExists = dynamic.ErrEdgeExists
	// ErrEdgeMissing rejects deleting or reweighting a missing edge.
	ErrEdgeMissing = dynamic.ErrEdgeMissing
	// ErrBadUpdate rejects malformed updates (self-loops, bad weights,
	// unknown ops).
	ErrBadUpdate = dynamic.ErrBadUpdate
)
