package dynamic

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// The edge-event wire format. A stream is a sequence of events, each an
// update or a commit; it has three spellings, all decoded by EventReader:
//
//	text    + u v w      insert edge (u,v) with weight w
//	        - u v        delete edge (u,v)
//	        = u v w      reweight edge (u,v) to w
//	        commit       close the current batch
//	NDJSON  {"op":"insert","u":0,"v":1,"w":2.5}   (EventJSON; "op" may be "commit")
//	binary  see binwire.go
//
// Text and NDJSON events are one per line and may be mixed (a line that
// starts with '{' is NDJSON); blank lines and #-comments are skipped and
// the named ops insert/delete/reweight are accepted in place of +/-/=.
// Whatever the spelling, updates after the last commit form a final
// implicit batch and empty batches (consecutive commits) are dropped.
// cmd/sparsify's -update-stream mode replays the text form; the service's
// stream endpoint takes all three.

// EventJSON is the JSON spelling of one event: an NDJSON stream line and
// an element of the PATCH body's "updates" array.
type EventJSON struct {
	Op string  `json:"op"` // insert | delete | reweight (| commit on a stream)
	U  int     `json:"u"`
	V  int     `json:"v"`
	W  float64 `json:"w,omitempty"`
}

// Update converts the wire form; an unknown op (commit included — only a
// stream has batch boundaries) is an ErrBadUpdate.
func (e EventJSON) Update() (Update, error) {
	op, err := ParseOp(e.Op)
	if err != nil {
		return Update{}, err
	}
	return Update{Op: op, U: e.U, V: e.V, W: e.W}, nil
}

// maxEventLineBytes bounds one event line (a single event is tiny; this
// leaves generous headroom without letting a hostile body allocate
// unbounded scanner buffers).
const maxEventLineBytes = 1 << 20

// EventReader incrementally decodes an event stream one batch at a time,
// so multi-million-event streams are never held in memory whole. It sits on
// the hot path of the service's stream endpoint: records are tokenized
// from the underlying buffer's bytes and the batch array and NDJSON
// scratch are reused across calls, so steady-state decoding does not
// allocate per event.
type EventReader struct {
	sc       *bufio.Scanner // line source of the text/NDJSON spelling
	br       *bufio.Reader  // record source of the binary spelling (nil for text)
	pos      int            // lines or records consumed, for error positions
	maxBatch int
	batch    []Update  // reused backing array; see Next
	json     EventJSON // reused NDJSON decode target
	weight   [8]byte   // binary weight scratch
}

// NewEventReader decodes the text/NDJSON spelling from r. A batch of more
// than maxBatch updates fails the stream; maxBatch <= 0 means no bound.
func NewEventReader(r io.Reader, maxBatch int) *EventReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxEventLineBytes)
	return &EventReader{sc: sc, maxBatch: maxBatch}
}

// Next returns the next non-empty batch, or io.EOF at a clean end of
// stream. A malformed event fails the whole stream with an ErrBadUpdate
// naming its line or record (the reader cannot resync). The returned
// slice shares the reader's backing array and is only valid until the
// next call.
func (d *EventReader) Next() ([]Update, error) {
	cur := d.batch[:0]
	for {
		// One record in the reader's spelling: (update, false) for an
		// update, (zero, true) for a commit, io.EOF exactly at a clean end
		// of stream.
		var (
			u      Update
			commit bool
			err    error
		)
		if d.br != nil {
			u, commit, err = d.binaryRecord()
		} else {
			u, commit, err = d.textRecord()
		}
		if err == io.EOF && len(cur) > 0 {
			commit, err = true, nil // updates after the last commit: the final implicit batch
		}
		if err == io.EOF {
			return nil, io.EOF
		}
		if err != nil {
			return nil, d.at(err)
		}
		if commit {
			if len(cur) == 0 {
				continue // consecutive commits delimit nothing
			}
			d.batch = cur
			return cur, nil
		}
		cur = append(cur, u)
		if d.maxBatch > 0 && len(cur) > d.maxBatch {
			return nil, d.at(fmt.Errorf("%w: batch exceeds %d updates; split it with commits", ErrBadUpdate, d.maxBatch))
		}
	}
}

// at names the line or record the reader stopped on.
func (d *EventReader) at(err error) error {
	unit := "line"
	if d.br != nil {
		unit = "record"
	}
	return fmt.Errorf("%s %d: %w", unit, d.pos, err)
}

// textRecord scans to the next event line and tokenizes it.
func (d *EventReader) textRecord() (Update, bool, error) {
	for d.sc.Scan() {
		d.pos++
		line := bytes.TrimSpace(d.sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if line[0] == '{' {
			return d.jsonEvent(line)
		}
		return parseEventLine(line)
	}
	if err := d.sc.Err(); err != nil {
		return Update{}, false, err
	}
	return Update{}, false, io.EOF
}

// jsonEvent decodes one NDJSON line into the reader's scratch struct,
// reset each call, so the only per-event allocations are json-internal.
func (d *EventReader) jsonEvent(line []byte) (Update, bool, error) {
	d.json = EventJSON{}
	if err := json.Unmarshal(line, &d.json); err != nil {
		return Update{}, false, fmt.Errorf("%w: %v", ErrBadUpdate, err)
	}
	if d.json.Op == "commit" {
		return Update{}, true, nil
	}
	u, err := d.json.Update()
	return u, false, err
}

// parseEventLine tokenizes one trimmed, non-blank text event on the
// scanner's bytes — no per-line string or field slice. Fields split like
// strings.Fields (any Unicode whitespace separates).
func parseEventLine(line []byte) (Update, bool, error) {
	if string(line) == "commit" {
		return Update{}, true, nil
	}
	var f [4][]byte
	n := 0
	for i := 0; i < len(line); {
		r, size := utf8.DecodeRune(line[i:])
		if unicode.IsSpace(r) {
			i += size
			continue
		}
		j := i
		for j < len(line) {
			r, size := utf8.DecodeRune(line[j:])
			if unicode.IsSpace(r) {
				break
			}
			j += size
		}
		if n == len(f) {
			return Update{}, false, fmt.Errorf("%w: too many fields", ErrBadUpdate)
		}
		f[n] = line[i:j]
		n++
		i = j
	}
	op, err := parseOp(f[0])
	if err != nil {
		return Update{}, false, err
	}
	want := 4
	if op == OpDelete {
		want = 3
	}
	if n != want {
		return Update{}, false, fmt.Errorf("%w: %q needs %d fields", ErrBadUpdate, f[0], want)
	}
	u, err := parseVertex(f[1])
	if err != nil {
		return Update{}, false, err
	}
	v, err := parseVertex(f[2])
	if err != nil {
		return Update{}, false, err
	}
	w := 0.0
	if op != OpDelete {
		// The only remaining conversion: ParseFloat wants a string, and
		// the number is a handful of bytes.
		w, err = strconv.ParseFloat(string(f[3]), 64)
		if err != nil {
			return Update{}, false, fmt.Errorf("%w: %v", ErrBadUpdate, err)
		}
	}
	return Update{Op: op, U: u, V: v, W: w}, false, nil
}

// parseVertex parses a (possibly signed) decimal endpoint from bytes
// without converting to string. A magnitude past MaxInt is rejected, never
// wrapped: a wrapped id would name an edge the client did not.
func parseVertex(b []byte) (int, error) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i = 1
	}
	if i == len(b) {
		return 0, fmt.Errorf("%w: bad integer %q", ErrBadUpdate, b)
	}
	n := 0
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			return 0, fmt.Errorf("%w: bad integer %q", ErrBadUpdate, b)
		}
		if n > math.MaxInt/10 {
			return 0, fmt.Errorf("%w: integer %q overflows", ErrBadUpdate, b)
		}
		// n·10 fits, so adding a digit wraps at most once, to a negative.
		if n = n*10 + int(c); n < 0 {
			return 0, fmt.Errorf("%w: integer %q overflows", ErrBadUpdate, b)
		}
	}
	if neg {
		n = -n
	}
	return n, nil
}

// collect drains a reader into owned batches (Next reuses its array, so
// each batch is copied once).
func collect(d *EventReader) ([][]Update, error) {
	var batches [][]Update
	for {
		batch, err := d.Next()
		if err == io.EOF {
			return batches, nil
		}
		if err != nil {
			return nil, err
		}
		batches = append(batches, append([]Update(nil), batch...))
	}
}

// ParseEvents reads a whole text/NDJSON event stream into update batches.
func ParseEvents(r io.Reader) ([][]Update, error) {
	return collect(NewEventReader(r, 0))
}

// WriteEvents is the inverse of ParseEvents: it serializes batches in the
// text spelling with commit separators, so tools can round-trip recorded
// streams.
func WriteEvents(w io.Writer, batches [][]Update) error {
	bw := bufio.NewWriter(w)
	for i, batch := range batches {
		for _, u := range batch {
			var err error
			switch u.Op {
			case OpDelete:
				_, err = fmt.Fprintf(bw, "- %d %d\n", u.U, u.V)
			case OpInsert:
				_, err = fmt.Fprintf(bw, "+ %d %d %.17g\n", u.U, u.V, u.W)
			case OpReweight:
				_, err = fmt.Fprintf(bw, "= %d %d %.17g\n", u.U, u.V, u.W)
			default:
				err = fmt.Errorf("%w: op %v", ErrBadUpdate, u.Op)
			}
			if err != nil {
				return err
			}
		}
		if i < len(batches)-1 {
			if _, err := fmt.Fprintln(bw, "commit"); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
