package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphspar"
)

// TestRunUpdateStream drives the -update-stream path end to end on a
// small grid: replayed batches, final sparsifier written out.
func TestRunUpdateStream(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.txt")
	if err := os.WriteFile(events, []byte(
		"+ 0 63 1.5\ncommit\n= 0 1 2.5\n- 62 63\ncommit\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := graphspar.LoadGraph("grid:8x8:uniform", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := graphspar.New(graphspar.WithSigma2(60), graphspar.WithSeed(1), graphspar.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "sparsifier.mtx")
	runUpdateStream(g, s, events, out)
	g2, err := graphspar.LoadGraph(out, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() {
		t.Fatalf("output sparsifier has %d vertices, want %d", g2.N(), g.N())
	}
	if !g2.IsConnected() {
		t.Fatal("output sparsifier must be connected")
	}
}

// TestRunUpdateStreamSharded pins the satellite fix: with a sharded
// facade, the -update-stream path (rebuilds and the final reference
// re-sparsify) must run through the engine without error, honoring the
// sharding flags instead of silently ignoring them.
func TestRunUpdateStreamSharded(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.txt")
	if err := os.WriteFile(events, []byte("+ 0 99 1.5\ncommit\n- 0 1\ncommit\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := graphspar.LoadGraph("grid:10x10:uniform", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := graphspar.New(
		graphspar.WithSigma2(60),
		graphspar.WithSeed(1),
		graphspar.WithShards(2),
		graphspar.WithWorkers(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "sparsifier.mtx")
	runUpdateStream(g, s, events, out)
	g2, err := graphspar.LoadGraph(out, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.IsConnected() {
		t.Fatal("output sparsifier must be connected")
	}
}

// TestRemoteQuery checks the flag → query-string mapping the -remote
// mode ships to the server's stream endpoint.
func TestRemoteQuery(t *testing.T) {
	q := remoteQuery(100, 2, 0, 1, 0, 7)
	if q.Get("sigma2") != "100" || q.Get("t") != "2" || q.Get("seed") != "7" {
		t.Fatalf("query = %v", q)
	}
	if q.Has("shards") || q.Has("workers") {
		t.Fatalf("unset flags must not ship: %v", q)
	}
	// The worker count rides along on every plan, single-shot included.
	if q = remoteQuery(100, 2, 0, 1, 3, 7); q.Get("workers") != "3" || q.Has("shards") {
		t.Fatalf("single-shot query with workers = %v", q)
	}
	q = remoteQuery(50, 3, 8, 4, 2, 1)
	if q.Get("shards") != "4" || q.Get("workers") != "2" || q.Get("r") != "8" {
		t.Fatalf("sharded query = %v", q)
	}
}

// TestRunRemoteStream replays an event file against a stub server and
// checks the body reaches the right endpoint and the NDJSON result
// lines are relayed.
func TestRunRemoteStream(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.txt")
	if err := os.WriteFile(events, []byte("= 0 1 2.5\ncommit\n= 0 1 1.0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var gotPath, gotBody, gotSigma string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.URL.Path
		gotSigma = r.URL.Query().Get("sigma2")
		b, _ := io.ReadAll(r.Body)
		gotBody = string(b)
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"batch":1,"updates":1,"applied":true,"condition_number":12.5,"target_met":true}`)
		fmt.Fprintln(w, `{"batch":2,"updates":1,"applied":true,"condition_number":12.5,"target_met":true}`)
		fmt.Fprintln(w, `{"done":true,"batches":2,"applied_total":2}`)
	}))
	defer srv.Close()

	runRemoteStream(srv.URL, "mygraph", events, "text", remoteQuery(75, 2, 0, 1, 0, 1))
	if gotPath != "/v1/graphs/mygraph/stream" {
		t.Fatalf("path = %q", gotPath)
	}
	if gotSigma != "75" {
		t.Fatalf("sigma2 = %q", gotSigma)
	}
	if !strings.Contains(gotBody, "= 0 1 2.5") || !strings.Contains(gotBody, "commit") {
		t.Fatalf("body = %q", gotBody)
	}
}
