package dynamic

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

func TestParseEventsRoundTrip(t *testing.T) {
	in := `# warm-up batch
+ 0 5 1.5
= 1 2 0.25
commit

- 3 4
commit
+ 7 9 2
`
	batches, err := ParseEvents(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]Update{
		{Insert(0, 5, 1.5), Reweight(1, 2, 0.25)},
		{Delete(3, 4)},
		{Insert(7, 9, 2)},
	}
	if len(batches) != len(want) {
		t.Fatalf("batches = %d, want %d", len(batches), len(want))
	}
	for i := range want {
		if len(batches[i]) != len(want[i]) {
			t.Fatalf("batch %d has %d updates, want %d", i, len(batches[i]), len(want[i]))
		}
		for j := range want[i] {
			if batches[i][j] != want[i][j] {
				t.Fatalf("batch %d update %d = %+v, want %+v", i, j, batches[i][j], want[i][j])
			}
		}
	}

	var buf bytes.Buffer
	if err := WriteEvents(&buf, batches); err != nil {
		t.Fatal(err)
	}
	again, err := ParseEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(batches) {
		t.Fatalf("round trip changed batch count: %d vs %d", len(again), len(batches))
	}
	for i := range batches {
		for j := range batches[i] {
			if again[i][j] != batches[i][j] {
				t.Fatalf("round trip changed update %d/%d", i, j)
			}
		}
	}
}

func TestParseEventsNamedOpsAndEmptyBatches(t *testing.T) {
	in := "commit\ninsert 1 2 3\ncommit\ncommit\ndelete 1 2\nreweight 3 4 5\n"
	batches, err := ParseEvents(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 {
		t.Fatalf("batches = %d, want 2 (empty batches dropped)", len(batches))
	}
}

func TestParseEventsErrors(t *testing.T) {
	for _, in := range []string{
		"~ 1 2 3\n",   // unknown op
		"+ 1 2\n",     // insert missing weight
		"- 1\n",       // delete missing endpoint
		"+ a 2 3\n",   // bad vertex
		"+ 1 2 x\n",   // bad weight
		"- 1 2 3 4\n", // too many fields
	} {
		if _, err := ParseEvents(strings.NewReader(in)); !errors.Is(err, ErrBadUpdate) {
			t.Fatalf("input %q: err = %v, want ErrBadUpdate", in, err)
		}
	}
}

// TestParseEventLine pins the one text tokenizer with explicit expected
// values. The two 20-digit endpoints wrap to 4 and 5 under a sign-only
// overflow check; they must be rejected, never decoded as an edge the
// client did not name.
func TestParseEventLine(t *testing.T) {
	ok := func(u Update) *Update { return &u }
	for _, tc := range []struct {
		line   string
		want   *Update // nil with commit false: ErrBadUpdate
		commit bool
	}{
		{line: "+ 0 1 1.5", want: ok(Insert(0, 1, 1.5))},
		{line: "- 3 4", want: ok(Delete(3, 4))},
		{line: "= 5 6 0.25", want: ok(Reweight(5, 6, 0.25))},
		{line: "insert 1 2 3", want: ok(Insert(1, 2, 3))},
		{line: "delete 7 8", want: ok(Delete(7, 8))},
		{line: "reweight 9 10 1e-3", want: ok(Reweight(9, 10, 1e-3))},
		{line: "commit", commit: true},
		{line: "+\u00a01\u20032\u30001.5", want: ok(Insert(1, 2, 1.5))}, // Unicode-space separators
		{line: "- -1 2", want: ok(Delete(-1, 2))},                       // signed: Apply's validation rejects it
		{line: "+ +1 2 +3.5", want: ok(Insert(1, 2, 3.5))},
		{line: "- 9223372036854775807 0", want: ok(Delete(9223372036854775807, 0))},
		{line: "+ 0 1"},
		{line: "- 3"},
		{line: "= 1 2 x"},
		{line: "bogus 1 2 3"},
		{line: "+ a b 1"},
		{line: "+ 1 2 3 4"},
		{line: "- 1 2 3"},
		{line: "- + 2"},
		{line: "commit extra"},
		{line: "- 9223372036854775808 0"},
		{line: "+ 18446744073709551620 1 1.0"},
		{line: "+ 1 36893488147419103237 1.0"},
	} {
		got, commit, err := parseEventLine([]byte(tc.line))
		switch {
		case tc.want == nil && !tc.commit:
			if !errors.Is(err, ErrBadUpdate) {
				t.Errorf("%q: got (%+v, %v, %v), want ErrBadUpdate", tc.line, got, commit, err)
			}
		case err != nil || commit != tc.commit || (tc.want != nil && got != *tc.want):
			t.Errorf("%q: got (%+v, %v, %v), want (%+v, %v)", tc.line, got, commit, err, tc.want, tc.commit)
		}
	}
}

// TestEventReaderFraming pins the framing rules every spelling shares:
// commits close batches, consecutive commits delimit nothing, updates
// after the last commit form a final batch, text and NDJSON lines mix,
// and a batch past the bound fails the stream.
func TestEventReaderFraming(t *testing.T) {
	in := "commit\n{\"op\":\"insert\",\"u\":0,\"v\":1,\"w\":2.5}\n- 2 3\n{\"op\":\"commit\"}\ncommit\n\n# note\n= 4 5 6\n"
	got, err := ParseEvents(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]Update{{Insert(0, 1, 2.5), Delete(2, 3)}, {Reweight(4, 5, 6)}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("batches = %v, want %v", got, want)
	}
	for _, bad := range []string{"{\n", "{\"op\":\"bogus\",\"u\":1,\"v\":2}\n"} {
		if _, err := ParseEvents(strings.NewReader(bad)); !errors.Is(err, ErrBadUpdate) {
			t.Errorf("%q: err = %v, want ErrBadUpdate", bad, err)
		}
	}

	d := NewEventReader(strings.NewReader("+ 0 1 1\n+ 1 2 1\ncommit\n+ 2 3 1\n+ 3 4 1\n+ 4 5 1\n"), 2)
	if b, err := d.Next(); err != nil || len(b) != 2 {
		t.Fatalf("batch at the bound: %v %v", b, err)
	}
	if _, err := d.Next(); !errors.Is(err, ErrBadUpdate) || !strings.Contains(err.Error(), "line 6") {
		t.Fatalf("batch past the bound: err = %v, want ErrBadUpdate at line 6", err)
	}
}

// TestStreamDecoderBatchReuse documents the contract that each batch is
// only valid until the next Next call: the second batch reuses the first
// one's backing array.
func TestStreamDecoderBatchReuse(t *testing.T) {
	d := NewEventReader(strings.NewReader("+ 0 1 1\ncommit\n+ 2 3 1\n"), 0)
	b1, err := d.Next()
	if err != nil || len(b1) != 1 {
		t.Fatalf("batch 1: %v %v", b1, err)
	}
	first := b1[0]
	b2, err := d.Next()
	if err != nil || len(b2) != 1 {
		t.Fatalf("batch 2: %v %v", b2, err)
	}
	if b1[0] == first {
		t.Error("second Next did not reuse the first batch's backing array (reuse contract untested)")
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("after the final implicit batch: err = %v, want io.EOF", err)
	}
}

// eventBodies renders n events (rotating insert/reweight/delete, a commit
// every batchEvery) in all three spellings of the wire.
func eventBodies(t testing.TB, n, batchEvery int) (text, ndjson, bin []byte) {
	var batches [][]Update
	var js bytes.Buffer
	for i := 0; i < n; i++ {
		if i%batchEvery == 0 {
			if i > 0 {
				js.WriteString("{\"op\":\"commit\"}\n")
			}
			batches = append(batches, nil)
		}
		u := []Update{Insert(i, i+1, 1.5), Reweight(i, i+1, 2.25), Delete(i, i+1)}[i%3]
		batches[len(batches)-1] = append(batches[len(batches)-1], u)
		if u.Op == OpDelete {
			fmt.Fprintf(&js, "{\"op\":\"delete\",\"u\":%d,\"v\":%d}\n", u.U, u.V)
		} else {
			fmt.Fprintf(&js, "{\"op\":%q,\"u\":%d,\"v\":%d,\"w\":%g}\n", u.Op, u.U, u.V, u.W)
		}
	}
	var tb, bb bytes.Buffer
	if err := WriteEvents(&tb, batches); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryEvents(&bb, batches); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), js.Bytes(), bb.Bytes()
}

// drain decodes a whole body batch by batch, returning the events seen.
func drain(d *EventReader) (int, error) {
	total := 0
	for {
		batch, err := d.Next()
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
		total += len(batch)
	}
}

func drainText(body []byte) (int, error) { return drain(NewEventReader(bytes.NewReader(body), 0)) }

func drainBinary(body []byte) (int, error) {
	return drain(NewBinaryEventReader(bytes.NewReader(body), 0))
}

func collectText(body []byte) (int, error) {
	batches, err := ParseEvents(bytes.NewReader(body))
	return countEvents(batches), err
}

func collectBinary(body []byte) (int, error) {
	batches, err := ReadBinaryEvents(bytes.NewReader(body))
	return countEvents(batches), err
}

func countEvents(batches [][]Update) int {
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	return n
}

// decodeAllocs holds a decode path to the steady-state ceiling: decoding
// thousands of events must cost a small constant number of allocations
// (reader buffer, batch-array growth), i.e. zero per event, plus extra for
// what a collector owns. A per-event allocation regression blows straight
// past the bound.
func decodeAllocs(t *testing.T, decode func([]byte) (int, error), body []byte, events int, extra float64) {
	t.Helper()
	// Warm once so parsing paths are compiled/initialized.
	if n, err := decode(body); err != nil || n != events {
		t.Fatalf("decode: %d events, err %v", n, err)
	}
	per := testing.AllocsPerRun(10, func() {
		if _, err := decode(body); err != nil {
			t.Fatal(err)
		}
	})
	if per > 40+extra {
		t.Errorf("decoding %d events allocated %.0f times; want <= %.0f (per-event allocations must be zero)", events, per, 40+extra)
	}
}

// TestStreamDecodeAllocs pins the text spelling at <= 40 allocations per
// 4096 events, incrementally and through ParseEvents (which additionally
// owns one copy per batch).
func TestStreamDecodeAllocs(t *testing.T) {
	const events, every = 4096, 64
	text, _, _ := eventBodies(t, events, every)
	decodeAllocs(t, drainText, text, events, 0)
	decodeAllocs(t, collectText, text, events, events/every)
}

// TestBinaryStreamDecodeAllocs holds the binary spelling to the same
// ceiling as the text one, so neither can quietly regress past the other.
func TestBinaryStreamDecodeAllocs(t *testing.T) {
	const events, every = 4096, 64
	_, _, bin := eventBodies(t, events, every)
	decodeAllocs(t, drainBinary, bin, events, 0)
	decodeAllocs(t, collectBinary, bin, events, events/every)
}

// TestBinaryDecodeThroughput asserts the acceptance bar from the serving
// fast-path work: the binary spelling must sustain at least 1.5x the text
// one's event throughput on identical event streams. Timing-based, so it
// only runs when CI opts in (BENCH_ASSERT_WIRE=1); local runs and -race
// builds skip it rather than flake.
func TestBinaryDecodeThroughput(t *testing.T) {
	if os.Getenv("BENCH_ASSERT_WIRE") == "" {
		t.Skip("timing-sensitive; set BENCH_ASSERT_WIRE=1 to enforce the 1.5x decode bar")
	}
	const events = 65536
	text, _, bin := eventBodies(t, events, 100)
	measure := func(decode func([]byte) (int, error), body []byte) float64 {
		// Warm, then take the best of a few rounds to shed scheduler noise.
		if n, err := decode(body); err != nil || n != events {
			t.Fatalf("decode: %d events, err %v", n, err)
		}
		best := time.Duration(1<<63 - 1)
		for round := 0; round < 5; round++ {
			t0 := time.Now()
			if _, err := decode(body); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return float64(events) / best.Seconds()
	}
	for _, pair := range []struct {
		name      string
		text, bin func([]byte) (int, error)
	}{{"incremental", drainText, drainBinary}, {"collected", collectText, collectBinary}} {
		textRate, binRate := measure(pair.text, text), measure(pair.bin, bin)
		ratio := binRate / textRate
		t.Logf("%s: text %.0f events/s, binary %.0f events/s (%.2fx)", pair.name, textRate, binRate, ratio)
		if ratio < 1.5 {
			t.Errorf("%s: binary decode is %.2fx text; want >= 1.5x", pair.name, ratio)
		}
	}
}

func BenchmarkStreamDecode(b *testing.B) {
	const events = 8192
	text, ndjson, bin := eventBodies(b, events, 100)
	for _, mode := range []struct {
		name   string
		body   []byte
		decode func([]byte) (int, error)
	}{
		{"text", text, drainText},
		{"json", ndjson, drainText},
		{"binary", bin, drainBinary},
		{"ParseEvents", text, collectText},
		{"ReadBinaryEvents", bin, collectBinary},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(int64(len(mode.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, err := mode.decode(mode.body)
				if err != nil || n != events {
					b.Fatalf("%d events, err %v", n, err)
				}
			}
		})
	}
}
