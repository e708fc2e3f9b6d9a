package dynamic

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

// FuzzEventReader throws arbitrary bytes at the one event reader in both
// modes. It must never panic, never hand back an empty batch, never exceed
// the batch bound, and always terminate — with io.EOF, an ErrBadUpdate, or
// the reader's own line bound (the in-memory source has no error to pass
// through). Round trip: whatever the text mode accepts with endpoints in
// the binary spelling's range re-encodes through WriteBinaryEvents and
// reads back as the same batches, weights compared by bits.
func FuzzEventReader(f *testing.F) {
	for _, text := range []string{
		"+ 0 1 1.5\ncommit\n- 0 1\n",
		"{\"op\":\"insert\",\"u\":0,\"v\":1,\"w\":1}\n{\"op\":\"commit\"}\n{\"op\":\"delete\",\"u\":0,\"v\":1}\n",
		"# comment\n\n= 3 4 2.25\ncommit\ncommit\n",
		"insert 1 2 0.5\nreweight 1 2 2\n",
		"+ 0\n",
		"{\n",
		"{\"op\":\"bogus\",\"u\":1,\"v\":2}\n",
		"= 1 2 1e999\n",
		"commit\n",
		"",
		"+ 18446744073709551620 1 1.0\n",
		"= 1 2 NaN\n- 4294967296 1\n",
	} {
		f.Add([]byte(text), false)
	}
	var bin bytes.Buffer
	if err := WriteBinaryEvents(&bin, [][]Update{{Insert(0, 1, 1.5), Delete(3, 4)}, {Reweight(7, 8, 2)}}); err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes(), true)
	f.Add(bin.Bytes()[:bin.Len()-3], true)                               // truncated mid-weight
	f.Add([]byte{binOpCommit, binOpCommit, 0x7f}, true)                  // unknown op byte
	f.Add([]byte{binOpDelete, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, true) // oversized vertex

	f.Fuzz(func(t *testing.T, body []byte, binary bool) {
		const bound = 16
		read := func(d *EventReader) ([][]Update, error) {
			var batches [][]Update
			for {
				batch, err := d.Next()
				if err != nil {
					return batches, err
				}
				if len(batch) == 0 {
					t.Fatal("reader returned an empty batch")
				}
				if len(batch) > bound {
					t.Fatalf("batch of %d exceeds the %d bound", len(batch), bound)
				}
				batches = append(batches, append([]Update(nil), batch...))
			}
		}
		d := NewEventReader(bytes.NewReader(body), bound)
		if binary {
			d = NewBinaryEventReader(bytes.NewReader(body), bound)
		}
		batches, err := read(d)
		if err != io.EOF {
			if !errors.Is(err, ErrBadUpdate) && (binary || !errors.Is(err, bufio.ErrTooLong)) {
				t.Fatalf("reader failed with %v; want io.EOF, ErrBadUpdate or the line bound", err)
			}
			return
		}
		for _, b := range batches {
			for _, u := range b {
				if u.U < 0 || u.U > math.MaxInt32 || u.V < 0 || u.V > math.MaxInt32 {
					return // the binary spelling cannot carry it
				}
			}
		}
		var enc bytes.Buffer
		if err := WriteBinaryEvents(&enc, batches); err != nil {
			t.Fatalf("re-encode of accepted batches: %v", err)
		}
		again, err := read(NewBinaryEventReader(&enc, bound))
		if err != io.EOF || len(again) != len(batches) {
			t.Fatalf("round trip: %d batches, err %v; want %d", len(again), err, len(batches))
		}
		for i := range batches {
			if len(again[i]) != len(batches[i]) {
				t.Fatalf("round trip: batch %d has %d updates, want %d", i, len(again[i]), len(batches[i]))
			}
			for j, u := range batches[i] {
				g := again[i][j]
				if u.Op == OpDelete {
					u.W, g.W = 0, 0 // a delete carries no weight on the binary wire
				}
				if g.Op != u.Op || g.U != u.U || g.V != u.V || math.Float64bits(g.W) != math.Float64bits(u.W) {
					t.Fatalf("round trip: batch %d update %d = %+v, want %+v", i, j, g, u)
				}
			}
		}
	})
}
