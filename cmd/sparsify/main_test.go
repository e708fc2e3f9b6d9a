package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"graphspar"
	"graphspar/internal/service"
)

// TestMain lets a test re-run the test binary as the command:
// SPARSIFY_TEST_ARGS holds its command line.
func TestMain(m *testing.M) {
	if args := os.Getenv("SPARSIFY_TEST_ARGS"); args != "" {
		os.Args = append([]string{"sparsify"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sparsify runs the command with args in a child process and returns its
// combined output and exit error.
func sparsify(args string) ([]byte, error) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "SPARSIFY_TEST_ARGS="+args)
	return cmd.CombinedOutput()
}

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
	s, err := graphspar.New(graphspar.WithSigma2(60), graphspar.WithSeed(1), graphspar.WithMode(graphspar.ModeSingleShot))
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
		graphspar.WithMode(graphspar.ModeSharded),
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

// TestRemoteFlagsOnly: a flag the -remote replay cannot honour is an
// error naming it, never silently dropped.
func TestRemoteFlagsOnly(t *testing.T) {
	for _, c := range []struct {
		set  []string
		want string // "" = accepted
	}{
		{nil, ""},
		{[]string{"graph", "mode", "remote", "seed", "sigma2", "update-stream", "wire", "workers"}, ""},
		{[]string{"out", "remote"}, "-out"},
		{[]string{"mode", "out", "remote", "v"}, "-out, -v"},
	} {
		err := remoteFlagsOnly(c.set, service.SparsifyParams{SigmaSq: 100}.StreamQuery())
		if c.want == "" && err != nil {
			t.Errorf("%v: %v, want accepted", c.set, err)
		}
		if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%v: %v, want an error naming %s", c.set, err, c.want)
		}
	}
}

// TestRetiredEmbedFlags: -t and -r are gone (two power steps and
// ⌈log₂(n+1)⌉ probes are constants of the filter), so the flag parser
// rejects them before any work starts, locally and with -remote alike.
func TestRetiredEmbedFlags(t *testing.T) {
	for _, c := range []struct{ args, flag string }{
		{"-graph grid:4x4 -sigma2 50 -t 2", "-t"},
		{"-graph grid:4x4 -sigma2 50 -r 8", "-r"},
		{"-remote http://127.0.0.1:1 -graph g -update-stream events.txt -t 2", "-t"},
		{"-remote http://127.0.0.1:1 -graph g -update-stream events.txt -r 8", "-r"},
	} {
		out, err := sparsify(c.args)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: %v, want exit status 2\n%s", c.args, err, out)
		}
		if want := "flag provided but not defined: " + c.flag; !strings.Contains(string(out), want) {
			t.Errorf("%s: output lacks %q:\n%s", c.args, want, out)
		}
	}
}

// TestPlanFlag: -mode alone picks the plan and defaults to single, so the
// CLI's default plan stays single-shot; the retired -shards flag is
// rejected before any work starts.
func TestPlanFlag(t *testing.T) {
	out, _ := sparsify("-h")
	if !strings.Contains(string(out), `(default "single")`) {
		t.Errorf("-mode does not default to single:\n%s", out)
	}
	out, err := sparsify("-graph grid:4x4 -sigma2 50 -shards 4")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined: -shards") {
		t.Errorf("-shards: %v, want exit status 2 naming the flag\n%s", err, out)
	}
	out, err = sparsify("-graph grid:12x12:uniform -sigma2 50 -mode sharded")
	if err != nil || !strings.Contains(string(out), "sharding: 4 parts") {
		t.Errorf("-mode sharded: %v, want a 4-part sharded report\n%s", err, out)
	}
}

// TestSingleShotReportsCertificate: a single-shot run with no option
// asking for it prints the certificate's κ and verdict on the same
// similarity line as the other plans.
func TestSingleShotReportsCertificate(t *testing.T) {
	out, err := sparsify("-graph grid:12x12:uniform -sigma2 50 -mode single")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	var line string
	for _, l := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(l, "similarity:") {
			if line != "" {
				t.Fatalf("two similarity lines:\n%s", out)
			}
			line = l
		}
	}
	var est, kappa, target float64
	var met bool
	if _, err := fmt.Sscanf(line, "similarity: σ² estimate=%g, verified κ=%g (target %g, met=%t)", &est, &kappa, &target, &met); err != nil {
		t.Fatalf("similarity line %q: %v\n%s", line, err, out)
	}
	if !(kappa > 0) || target != 50 || met != (kappa <= target) {
		t.Errorf("similarity line %q: want a positive verified κ and met = κ ≤ 50", line)
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

	runRemoteStream(srv.URL, "mygraph", events, "text", service.SparsifyParams{SigmaSq: 75, Seed: 1}.StreamQuery())
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
