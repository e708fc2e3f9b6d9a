package dynamic

import (
	"errors"
	"fmt"

	"graphspar/internal/graph"
)

// Typed errors surfaced by batch validation and application. The service
// layer maps ErrWouldDisconnect to 422 so clients can distinguish "your
// delete severs a bridge" from a malformed request.
var (
	ErrWouldDisconnect = errors.New("dynamic: update batch would disconnect the graph")
	ErrEdgeExists      = errors.New("dynamic: insert of an existing edge")
	ErrEdgeMissing     = errors.New("dynamic: update references a missing edge")
	ErrBadUpdate       = errors.New("dynamic: invalid update")
)

// Op is the kind of one edge mutation.
type Op int

// Supported mutations.
const (
	OpInsert Op = iota
	OpDelete
	OpReweight
)

// String names the op for logs and wire formats.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpReweight:
		return "reweight"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// ParseOp is the inverse of String; the symbols +, - and = are accepted
// too.
func ParseOp(s string) (Op, error) { return parseOp([]byte(s)) }

// parseOp is ParseOp on bytes, so the event tokenizer needs no string per
// line (a switch on string(b) compiles copy-free).
func parseOp(b []byte) (Op, error) {
	switch string(b) {
	case "insert", "+":
		return OpInsert, nil
	case "delete", "-":
		return OpDelete, nil
	case "reweight", "=":
		return OpReweight, nil
	}
	return 0, fmt.Errorf("%w: unknown op %q", ErrBadUpdate, string(b))
}

// Update is one edge mutation. W is ignored for deletes. Endpoints may be
// given in either orientation.
type Update struct {
	Op   Op
	U, V int
	W    float64
}

// key returns the normalized (min, max) endpoint pair.
func (u Update) key() [2]int {
	if u.U < u.V {
		return [2]int{u.U, u.V}
	}
	return [2]int{u.V, u.U}
}

// Insert builds an insert update.
func Insert(u, v int, w float64) Update { return Update{Op: OpInsert, U: u, V: v, W: w} }

// Delete builds a delete update.
func Delete(u, v int) Update { return Update{Op: OpDelete, U: u, V: v} }

// Reweight builds a reweight update.
func Reweight(u, v int, w float64) Update { return Update{Op: OpReweight, U: u, V: v, W: w} }

// validate checks one update against the vertex range and weight rules
// (mirroring graph.New's constraints so failures surface before any state
// is staged).
func (u Update) validate(n int) error {
	if u.U == u.V {
		return fmt.Errorf("%w: self loop (%d,%d)", ErrBadUpdate, u.U, u.V)
	}
	if u.U < 0 || u.U >= n || u.V < 0 || u.V >= n {
		return fmt.Errorf("%w: vertex out of range (%d,%d) with n=%d", ErrBadUpdate, u.U, u.V, n)
	}
	if u.Op != OpDelete && (!(u.W > 0) || u.W > 1e300) {
		return fmt.Errorf("%w: weight %v on (%d,%d)", ErrBadUpdate, u.W, u.U, u.V)
	}
	return nil
}

// ApplyToGraph validates a batch against g and returns the mutated graph.
// The batch is atomic: the first violation (unknown edge, duplicate
// insert, self loop, bad weight, or a result that is no longer connected)
// rejects the whole batch and g is returned unchanged. Within one batch
// each edge may appear at most once. Existence checks are binary searches
// on g's sorted edge list and the new list is built by one merge walk over
// it (graph.Edit — the walk the maintainer also edits its sparsifier
// with), so the cost is O(m + b·log m): no sort, no edge map, no adjacency
// index — this is the per-batch hot path of the dynamic maintainer.
func ApplyToGraph(g *graph.Graph, batch []Update) (*graph.Graph, error) {
	if len(batch) == 0 {
		return g, nil
	}
	seen := make(map[[2]int]bool, len(batch))
	edits := make([]graph.Edge, len(batch))
	hasDelete := false
	for i, u := range batch {
		if err := u.validate(g.N()); err != nil {
			return nil, fmt.Errorf("update %d: %w", i, err)
		}
		k := u.key()
		if seen[k] {
			return nil, fmt.Errorf("update %d: %w: edge (%d,%d) appears twice in batch", i, ErrBadUpdate, k[0], k[1])
		}
		seen[k] = true
		edits[i] = graph.Edge{U: k[0], V: k[1], W: u.W}
		exists := g.HasEdge(k[0], k[1])
		switch u.Op {
		case OpInsert:
			if exists {
				return nil, fmt.Errorf("update %d: %w: (%d,%d)", i, ErrEdgeExists, k[0], k[1])
			}
		case OpDelete:
			if !exists {
				return nil, fmt.Errorf("update %d: %w: delete (%d,%d)", i, ErrEdgeMissing, k[0], k[1])
			}
			hasDelete = true
			edits[i].W = 0 // Edit's spelling of a deletion
		case OpReweight:
			if !exists {
				return nil, fmt.Errorf("update %d: %w: reweight (%d,%d)", i, ErrEdgeMissing, k[0], k[1])
			}
		default:
			return nil, fmt.Errorf("update %d: %w: op %v", i, ErrBadUpdate, u.Op)
		}
	}
	out, _, err := graph.Edit(g, edits)
	if err != nil {
		return nil, err
	}
	// Only deletes can disconnect; skip the union-find pass for pure
	// insert/reweight batches.
	if hasDelete && !out.IsConnected() {
		return nil, ErrWouldDisconnect
	}
	return out, nil
}
