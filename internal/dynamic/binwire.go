package dynamic

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary event wire format (application/x-graphspar-events).
//
// The compact spelling of the event wire described in stream.go,
// negotiated by Content-Type on the service's stream endpoint. A stream is
// a flat sequence of records, each:
//
//	1 op byte   0x00 commit · 0x01 insert · 0x02 delete · 0x03 reweight
//	uvarint u   endpoint (absent for commit)
//	uvarint v   endpoint (absent for commit)
//	8 bytes     float64 weight, IEEE-754 bits little-endian
//	            (insert/reweight only; absent for delete)
//
// Varint endpoints keep typical records at 4–12 bytes versus ~20+ for
// the text spelling, and the fixed-width weight decodes without any
// float parsing. Batch semantics are EventReader's, whatever the spelling.
const BinaryContentType = "application/x-graphspar-events"

// Binary wire op bytes. Distinct from the Op enum so the wire encoding
// stays frozen even if the in-memory enum is ever reordered.
const (
	binOpCommit   = 0x00
	binOpInsert   = 0x01
	binOpDelete   = 0x02
	binOpReweight = 0x03
)

// binWireOp maps an in-memory Op to its wire byte.
func binWireOp(op Op) (byte, error) {
	switch op {
	case OpInsert:
		return binOpInsert, nil
	case OpDelete:
		return binOpDelete, nil
	case OpReweight:
		return binOpReweight, nil
	default:
		return 0, fmt.Errorf("%w: op %v", ErrBadUpdate, op)
	}
}

// AppendBinaryUpdate appends one update record to dst and returns the
// extended slice. It is allocation-free beyond dst growth, so encoders
// (loadgen, sparsify -remote) can reuse one buffer per batch. Negative
// endpoints cannot be represented and are rejected; they would be
// rejected by validation on apply anyway.
func AppendBinaryUpdate(dst []byte, u Update) ([]byte, error) {
	op, err := binWireOp(u.Op)
	if err != nil {
		return dst, err
	}
	if u.U < 0 || u.V < 0 {
		return dst, fmt.Errorf("%w: negative endpoint (%d,%d)", ErrBadUpdate, u.U, u.V)
	}
	dst = append(dst, op)
	dst = binary.AppendUvarint(dst, uint64(u.U))
	dst = binary.AppendUvarint(dst, uint64(u.V))
	if u.Op != OpDelete {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(u.W))
	}
	return dst, nil
}

// AppendBinaryCommit appends a batch-boundary record to dst.
func AppendBinaryCommit(dst []byte) []byte {
	return append(dst, binOpCommit)
}

// NewBinaryEventReader decodes the binary spelling from r; maxBatch is as
// for NewEventReader. Decoding is allocation-free on the happy path:
// varints come off the bufio.Reader byte by byte and the weight through a
// fixed scratch array.
func NewBinaryEventReader(r io.Reader, maxBatch int) *EventReader {
	return &EventReader{br: bufio.NewReader(r), maxBatch: maxBatch}
}

// binaryRecord decodes the next record. Only an EOF before the op byte is
// a clean end of stream; a stream truncated mid-record is an ErrBadUpdate.
func (d *EventReader) binaryRecord() (Update, bool, error) {
	op, err := d.br.ReadByte()
	if err != nil {
		return Update{}, false, err
	}
	d.pos++
	var u Update
	switch op {
	case binOpCommit:
		return Update{}, true, nil
	case binOpInsert:
		u.Op = OpInsert
	case binOpDelete:
		u.Op = OpDelete
	case binOpReweight:
		u.Op = OpReweight
	default:
		return Update{}, false, fmt.Errorf("%w: unknown op byte 0x%02x", ErrBadUpdate, op)
	}
	if u.U, err = d.binaryVertex(); err != nil {
		return Update{}, false, err
	}
	if u.V, err = d.binaryVertex(); err != nil {
		return Update{}, false, err
	}
	if u.Op != OpDelete {
		if _, err := io.ReadFull(d.br, d.weight[:]); err != nil {
			return Update{}, false, truncated(err)
		}
		u.W = math.Float64frombits(binary.LittleEndian.Uint64(d.weight[:]))
	}
	return u, false, nil
}

// binaryVertex reads one uvarint endpoint, checking the MaxInt32 bound as
// the bytes arrive: an overlong varint is out of range like any other
// oversized id, not an overflow error of some other type.
func (d *EventReader) binaryVertex() (int, error) {
	var x uint64
	for shift := 0; ; shift += 7 {
		b, err := d.br.ReadByte()
		if err != nil {
			return 0, truncated(err)
		}
		x |= uint64(b&0x7f) << shift
		if x > math.MaxInt32 || (shift == 28 && b >= 0x80) {
			return 0, fmt.Errorf("%w: vertex out of range", ErrBadUpdate)
		}
		if b < 0x80 {
			return int(x), nil
		}
	}
}

// truncated converts an EOF inside a record into a diagnosable
// ErrBadUpdate; other reader errors pass through.
func truncated(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: truncated record", ErrBadUpdate)
	}
	return err
}

// ReadBinaryEvents reads a whole binary event stream into update batches,
// the binary analogue of ParseEvents.
func ReadBinaryEvents(r io.Reader) ([][]Update, error) {
	return collect(NewBinaryEventReader(r, 0))
}

// WriteBinaryEvents serializes batches in the binary wire format with
// commit separators, the inverse of ReadBinaryEvents. Like WriteEvents
// it leaves the final batch implicit (no trailing commit).
func WriteBinaryEvents(w io.Writer, batches [][]Update) error {
	var buf []byte
	for i, batch := range batches {
		buf = buf[:0]
		var err error
		for _, u := range batch {
			if buf, err = AppendBinaryUpdate(buf, u); err != nil {
				return err
			}
		}
		if i < len(batches)-1 {
			buf = AppendBinaryCommit(buf)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
