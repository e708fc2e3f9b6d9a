package graphspar

import (
	"io"

	"graphspar/internal/dynamic"
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
// without re-running the full pipeline per batch. Obtain one with
// Sparsifier.Maintain. It is the maintainer itself; its methods (Apply,
// Rebuild, Graph, Sparsifier, Cond, TargetMet, Stats, ResidentBytes) are
// documented on dynamic.Maintainer. Not safe for concurrent use.
type Stream = dynamic.Maintainer
