package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"

	"graphspar/internal/dynamic"
)

// buildEventBody renders n events (rotating insert/reweight/delete) with
// a commit line every batchEvery events, as text lines or NDJSON.
func buildEventBody(n, batchEvery int, jsonMode bool) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		switch {
		case jsonMode && i%3 == 2:
			fmt.Fprintf(&b, "{\"op\":\"delete\",\"u\":%d,\"v\":%d}\n", i, i+1)
		case jsonMode:
			fmt.Fprintf(&b, "{\"op\":\"insert\",\"u\":%d,\"v\":%d,\"w\":1.5}\n", i, i+1)
		case i%3 == 2:
			fmt.Fprintf(&b, "- %d %d\n", i, i+1)
		case i%3 == 1:
			fmt.Fprintf(&b, "= %d %d 2.25\n", i, i+1)
		default:
			fmt.Fprintf(&b, "+ %d %d 1.5\n", i, i+1)
		}
		if (i+1)%batchEvery == 0 {
			b.WriteString("commit\n")
		}
	}
	return b.Bytes()
}

// buildBinaryEventBody renders buildEventBody's text event sequence in
// the binary spelling.
func buildBinaryEventBody(t testing.TB, n, batchEvery int) []byte {
	var buf []byte
	for i := 0; i < n; i++ {
		var u dynamic.Update
		switch i % 3 {
		case 2:
			u = dynamic.Delete(i, i+1)
		case 1:
			u = dynamic.Reweight(i, i+1, 2.25)
		default:
			u = dynamic.Insert(i, i+1, 1.5)
		}
		var err error
		if buf, err = dynamic.AppendBinaryUpdate(buf, u); err != nil {
			t.Fatalf("encode event %d: %v", i, err)
		}
		if (i+1)%batchEvery == 0 {
			buf = dynamic.AppendBinaryCommit(buf)
		}
	}
	return buf
}

// drainRequest decodes a whole stream request body the way the endpoint
// does — reader negotiated from the Content-Type — returning events seen.
func drainRequest(contentType string, body []byte) (int, error) {
	req := &http.Request{Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(body))}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	d := newEventReader(req)
	total := 0
	for {
		batch, err := d.Next()
		if errors.Is(err, io.EOF) {
			return total, nil
		}
		if err != nil {
			return total, err
		}
		total += len(batch)
	}
}

func drainDecoder(body []byte) (int, error) { return drainRequest("application/x-ndjson", body) }

func drainBinaryDecoder(body []byte) (int, error) {
	return drainRequest(dynamic.BinaryContentType, body)
}

// TestStreamContentTypeNegotiation pins the one wire decision the service
// still makes: the binary media type (parameters ignored) selects the
// binary spelling, and anything else — no Content-Type included — reads
// text/NDJSON lines, so a binary body sent without its type is a decode
// error rather than garbage edges.
func TestStreamContentTypeNegotiation(t *testing.T) {
	const events = 10
	text, bin := buildEventBody(events, 4, false), buildBinaryEventBody(t, events, 4)
	for _, tc := range []struct {
		contentType string
		body        []byte
		ok          bool
	}{
		{dynamic.BinaryContentType, bin, true},
		{" " + dynamic.BinaryContentType + " ; charset=binary", bin, true},
		{"", text, true},
		{"text/plain", text, true},
		{"application/x-ndjson", buildEventBody(events, 4, true), true},
		{"", bin, false},
		{"application/octet-stream", bin, false},
		{dynamic.BinaryContentType, text, false},
	} {
		n, err := drainRequest(tc.contentType, tc.body)
		if tc.ok && (err != nil || n != events) {
			t.Errorf("Content-Type %q: %d events, err %v; want %d", tc.contentType, n, err, events)
		}
		if !tc.ok && !errors.Is(err, dynamic.ErrBadUpdate) {
			t.Errorf("Content-Type %q on the other spelling's body: err = %v, want ErrBadUpdate", tc.contentType, err)
		}
	}
}
