package graphspar

import (
	"context"
	"io"

	"graphspar/internal/dynamic"
	"graphspar/internal/sessions"
)

// Update is one edge mutation applied through a Stream. Endpoints may be
// given in either orientation; W is ignored for deletes.
type Update = dynamic.Update

// UpdateOp is the kind of one edge mutation.
type UpdateOp = dynamic.Op

// Supported mutations.
const (
	OpInsert   = dynamic.OpInsert
	OpDelete   = dynamic.OpDelete
	OpReweight = dynamic.OpReweight
)

// Insert builds an insert update.
func Insert(u, v int, w float64) Update { return dynamic.Insert(u, v, w) }

// Delete builds a delete update.
func Delete(u, v int) Update { return dynamic.Delete(u, v) }

// Reweight builds a reweight update.
func Reweight(u, v int, w float64) Update { return dynamic.Reweight(u, v, w) }

// ParseUpdateOp resolves an op name ("insert"/"+", "delete"/"-",
// "reweight"/"=") for flags and wire formats.
func ParseUpdateOp(s string) (UpdateOp, error) { return dynamic.ParseOp(s) }

// ParseEvents reads a line-oriented edge-event stream ("+ u v w",
// "- u v", "= u v w", or the NDJSON object {"op":"insert","u":0,"v":1,
// "w":2.5} per line; batches separated by "commit" lines) into update
// batches for Stream.Apply.
func ParseEvents(r io.Reader) ([][]Update, error) { return dynamic.ParseEvents(r) }

// WriteEvents writes update batches in the ParseEvents format.
func WriteEvents(w io.Writer, batches [][]Update) error { return dynamic.WriteEvents(w, batches) }

// BinaryEventsContentType is the MIME type of the compact binary
// edge-event framing (one op byte, uvarint endpoints, little-endian
// float64 weight bits per record). The serving daemon's stream endpoint
// negotiates it by Content-Type as a peer of NDJSON.
const BinaryEventsContentType = dynamic.BinaryContentType

// ReadBinaryEvents reads a binary edge-event stream (see
// BinaryEventsContentType) into update batches, exactly mirroring
// ParseEvents' batch semantics: commit records separate batches, empty
// batches are dropped, and a trailing unterminated batch is kept.
func ReadBinaryEvents(r io.Reader) ([][]Update, error) { return dynamic.ReadBinaryEvents(r) }

// WriteBinaryEvents writes update batches in the binary edge-event
// framing; ReadBinaryEvents(WriteBinaryEvents(b)) round-trips exactly.
func WriteBinaryEvents(w io.Writer, batches [][]Update) error {
	return dynamic.WriteBinaryEvents(w, batches)
}

// ApplyUpdates returns a copy of g with one batch of updates applied
// (validating the batch exactly like Stream.Apply, including the
// connectivity check), without touching any sparsifier state.
func ApplyUpdates(g *Graph, batch []Update) (*Graph, error) { return dynamic.ApplyToGraph(g, batch) }

// StreamStats counts a Stream's maintenance work since construction.
type StreamStats = dynamic.Stats

// Stream is a live sparsifier: a graph together with its maintained
// sparsifier and σ² certificate, advanced by batches of edge updates
// without re-running the full pipeline per batch (probe-vector re-scoring
// against the last filter pass, backbone repair, localized re-filter
// rounds, churn-budgeted full rebuilds). Obtain one with
// Sparsifier.Maintain. Not safe for concurrent use.
type Stream struct {
	m *dynamic.Maintainer
}

// Apply validates and applies one batch of updates atomically: a
// validation or connectivity error (ErrWouldDisconnect for bridge
// deletes) rejects the whole batch with the stream unchanged. On success
// the sparsifier has been maintained and its certificate re-verified;
// check TargetMet for the rare best-effort case where even a full rebuild
// cannot certify σ².
func (s *Stream) Apply(ctx context.Context, batch []Update) error {
	return s.m.Apply(ctx, batch)
}

// Rebuild discards all incremental state and re-sparsifies from scratch.
func (s *Stream) Rebuild(ctx context.Context) error { return s.m.Rebuild(ctx) }

// Graph returns the current graph.
func (s *Stream) Graph() *Graph { return s.m.Graph() }

// Sparsifier returns the current sparsifier. Callers must not mutate it;
// it stays live until the next Apply replaces it.
func (s *Stream) Sparsifier() *Graph { return s.m.Sparsifier() }

// Cond returns the latest independently verified condition number
// κ(L_G, L_P).
func (s *Stream) Cond() float64 { return s.m.Cond() }

// TargetMet reports whether the latest certificate meets σ².
func (s *Stream) TargetMet() bool { return s.m.TargetMet() }

// Stats snapshots the maintenance counters.
func (s *Stream) Stats() StreamStats { return s.m.Stats() }

// SessionStats is the resident-session telemetry shared by library
// streams and the HTTP service's persistent sessions: estimated resident
// bytes, batches/updates applied, rebuilds forced, re-filter rounds and
// the current certificate. A Stream held in a library process and a
// session resident in sparsifyd report the same numbers for the same
// maintenance work.
type SessionStats = sessions.Stats

// SessionStats snapshots the stream's session telemetry.
func (s *Stream) SessionStats() SessionStats { return sessions.Snapshot(s.m) }

// ResidentBytes estimates the heap the stream keeps resident between
// applies: both graphs, the sparsifier's spanning-tree key set and
// factorization, the retained probe embedding. The maintainer holds its
// sparsifier once — no edge-map mirror, no rooted tree object — so the
// estimate carries no term for either. Session managers budget memory
// with it.
func (s *Stream) ResidentBytes() int64 { return s.m.ResidentBytes() }
