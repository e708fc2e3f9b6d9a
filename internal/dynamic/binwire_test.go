package dynamic

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	batches := [][]Update{
		{
			{Op: OpInsert, U: 0, V: 1, W: 1.5},
			{Op: OpInsert, U: 12345, V: 678901, W: 1e-12},
			{Op: OpDelete, U: 3, V: 4},
		},
		{
			{Op: OpReweight, U: 7, V: 8, W: math.Nextafter(1, 2)},
		},
		{
			{Op: OpInsert, U: 0, V: math.MaxInt32, W: 1e300},
		},
	}
	var buf bytes.Buffer
	if err := WriteBinaryEvents(&buf, batches); err != nil {
		t.Fatalf("WriteBinaryEvents: %v", err)
	}
	got, err := ReadBinaryEvents(&buf)
	if err != nil {
		t.Fatalf("ReadBinaryEvents: %v", err)
	}
	if !reflect.DeepEqual(got, batches) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, batches)
	}
}

// TestBinaryMatchesText parses the same logical stream through both wire
// formats and requires identical batches: the two decoders must stay
// drop-in peers of each other.
func TestBinaryMatchesText(t *testing.T) {
	text := strings.Join([]string{
		"+ 1 2 0.5",
		"= 2 3 1.25",
		"commit",
		"- 1 2",
		"commit",
		"+ 9 10 42",
	}, "\n")
	want, err := ParseEvents(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseEvents: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteBinaryEvents(&buf, want); err != nil {
		t.Fatalf("WriteBinaryEvents: %v", err)
	}
	got, err := ReadBinaryEvents(&buf)
	if err != nil {
		t.Fatalf("ReadBinaryEvents: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("binary and text decode diverge:\n got %v\nwant %v", got, want)
	}
}

func TestBinaryEmptyBatchesDropped(t *testing.T) {
	// commit commit <insert> commit commit → one batch.
	buf := AppendBinaryCommit(nil)
	buf = AppendBinaryCommit(buf)
	buf, err := AppendBinaryUpdate(buf, Update{Op: OpInsert, U: 1, V: 2, W: 3})
	if err != nil {
		t.Fatalf("AppendBinaryUpdate: %v", err)
	}
	buf = AppendBinaryCommit(buf)
	buf = AppendBinaryCommit(buf)
	got, err := ReadBinaryEvents(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("ReadBinaryEvents: %v", err)
	}
	if len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("want a single one-update batch, got %v", got)
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	ins, err := AppendBinaryUpdate(nil, Update{Op: OpInsert, U: 5, V: 6, W: 7})
	if err != nil {
		t.Fatalf("AppendBinaryUpdate: %v", err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"unknown op byte", []byte{0x7f}},
		{"truncated after op", ins[:1]},
		{"truncated mid weight", ins[:len(ins)-3]},
		{"oversized vertex", append([]byte{binOpDelete}, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)},
		{"vertex just past MaxInt32", append([]byte{binOpDelete}, 0x80, 0x80, 0x80, 0x80, 0x08, 0x01)},
		{"varint past 64 bits", append([]byte{binOpDelete}, bytes.Repeat([]byte{0x80}, 11)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadBinaryEvents(bytes.NewReader(tc.data))
			if !errors.Is(err, ErrBadUpdate) {
				t.Fatalf("want ErrBadUpdate, got %v", err)
			}
		})
	}
}

func TestBinaryEncodeRejects(t *testing.T) {
	if _, err := AppendBinaryUpdate(nil, Update{Op: Op(99), U: 1, V: 2}); !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("bad op: want ErrBadUpdate, got %v", err)
	}
	if _, err := AppendBinaryUpdate(nil, Update{Op: OpDelete, U: -1, V: 2}); !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("negative endpoint: want ErrBadUpdate, got %v", err)
	}
}

func TestBinaryReaderCleanEOF(t *testing.T) {
	d := NewBinaryEventReader(bytes.NewReader(nil), 0)
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
}
