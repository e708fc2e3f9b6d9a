// Command sparsify computes a similarity-aware spectral sparsifier of a
// graph and reports the similarity trace of the densification loop. It is
// a thin shell over the public graphspar package — every flag maps to one
// facade option.
//
// Usage:
//
//	sparsify -graph grid:300x300:uniform -sigma2 100 [-out sparsifier.mtx]
//	sparsify -graph problem.mtx -sigma2 50
//	sparsify -graph grid:512x512:uniform -sigma2 100 -mode sharded -workers 4
//	sparsify -graph grid:1024x1024:unit -sigma2 100 -mode multilevel
//	sparsify -graph grid:200x200 -sigma2 100 -update-stream events.txt
//	sparsify -remote http://localhost:8080 -graph mygraph -sigma2 100 -update-stream events.txt
//
// With -update-stream, the graph is sparsified once and the edge-event
// file (lines "+ u v w" / "- u v" / "= u v w", batches separated by
// "commit") is replayed through the incremental maintainer, reporting the
// certificate after every batch and comparing the total incremental cost
// against one from-scratch re-sparsification of the final graph.
//
// With -remote URL, the event file is instead replayed against a live
// sparsifyd server: the body is streamed to POST
// /v1/graphs/{name}/stream (-graph names the registered graph) and the
// server's per-batch certificate lines are relayed to stdout. The
// server keeps the maintainer resident between requests, so consecutive
// replays — and interleaved PATCHes or incremental jobs — all reuse the
// same live session. The query carries the knob flags exactly as the
// server's stream endpoint spells them (service.SparsifyParams.StreamQuery).
// The server keeps the sparsifier and reports its own lines, so a flag it
// cannot honour (-out, -v) is an error.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strings"
	"time"

	"graphspar"
	"graphspar/internal/service"
)

func main() {
	var (
		spec    = flag.String("graph", "", graphspar.SpecHelp)
		sigmaSq = flag.Float64("sigma2", 100, "target spectral similarity σ² (relative condition number bound)")
		out     = flag.String("out", "", "optional output .mtx path for the sparsifier Laplacian")
		mode    = flag.String("mode", "single", "execution plan: single | sharded | multilevel | auto (by graph size)")
		workers = flag.Int("workers", 0, "worker count: concurrent shards and the goroutines of every embedding pass (0 = all cores; any value is bit-identical)")
		stream  = flag.String("update-stream", "", "edge-event file to replay through the incremental maintainer after the initial sparsification")
		remote  = flag.String("remote", "", "base URL of a sparsifyd server; -update-stream replays the event file against its /stream endpoint (-graph names the registered graph)")
		wireFmt = flag.String("wire", "text", "wire format for -remote streaming: text (NDJSON) | binary")
		seed    = flag.Uint64("seed", 1, "random seed")
		verbose = flag.Bool("v", false, "print per-round densification stats (per shard in sharded mode)")
	)
	flag.Parse()
	var set []string // the flags given on the command line, in lexical order
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })

	if *remote != "" {
		q := service.SparsifyParams{SigmaSq: *sigmaSq, Seed: *seed, Workers: *workers, Mode: *mode}.StreamQuery()
		if err := remoteFlagsOnly(set, q); err != nil {
			fatal(err)
		}
		if *stream == "" {
			fatal(errors.New("-remote requires -update-stream (it replays an event file against a live server)"))
		}
		if *spec == "" {
			fatal(errors.New("-remote requires -graph naming a graph registered on the server"))
		}
		if *wireFmt != "text" && *wireFmt != "binary" {
			fatal(fmt.Errorf("bad -wire %q (want text or binary)", *wireFmt))
		}
		runRemoteStream(*remote, *spec, *stream, *wireFmt, q)
		return
	}

	execMode, err := graphspar.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}
	g, err := graphspar.LoadGraph(*spec, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("input: |V|=%d |E|=%d\n", g.N(), g.M())

	s, err := graphspar.New(
		graphspar.WithSigma2(*sigmaSq),
		graphspar.WithSeed(*seed),
		graphspar.WithWorkers(*workers),
		graphspar.WithMode(execMode),
	)
	if err != nil {
		fatal(err)
	}

	if *stream != "" {
		runUpdateStream(g, s, *stream, *out)
		return
	}

	res, err := s.Run(context.Background(), g)
	if err != nil && !errors.Is(err, graphspar.ErrNoTarget) {
		fatal(err)
	}
	report(g, res, *sigmaSq, *verbose)
	if err != nil {
		fmt.Println("warning:", err)
	}
	save(*out, res.Sparsifier)
}

// report prints the unified Result: one similarity line with the
// certificate's verdict on every plan, then the plan's own phases.
func report(g *graphspar.Graph, res *graphspar.Result, sigmaSq float64, verbose bool) {
	fmt.Printf("sparsifier: |Es|=%d  density |Es|/|V| = %.3f  (%.1fx edge reduction)\n",
		res.Sparsifier.M(), res.Density(), float64(max(g.M(), 1))/float64(max(res.Sparsifier.M(), 1)))
	fmt.Printf("similarity: σ² estimate=%.1f, verified κ=%.1f (target %.1f, met=%v)\n",
		res.SigmaSqAchieved, res.VerifiedCond, sigmaSq, res.TargetMet)
	if res.Multilevel {
		fmt.Printf("hierarchy: %d levels (coarsest |V|=%d |E|=%d)\n",
			res.CoarsenDepth, res.Levels[len(res.Levels)-1].Vertices, res.Levels[len(res.Levels)-1].Edges)
		fmt.Printf("time: %s total  (coarsen %s, interpolate %s, refilter %s, verify %s)\n",
			res.Timings.Wall.Round(time.Millisecond),
			res.Timings.Coarsen.Round(time.Millisecond),
			res.Timings.Interpolate.Round(time.Millisecond),
			res.Timings.Refilter.Round(time.Millisecond),
			res.Timings.Verify.Round(time.Millisecond))
		if verbose {
			fmt.Println("level  |V|      |E|      tree   inherit  recov  kept     σ²est  κver")
			for _, lv := range res.Levels {
				fmt.Printf("%5d  %7d  %7d  %5d  %7d  %5d  %7d  %5.1f  %.1f\n",
					lv.Level, lv.Vertices, lv.Edges, lv.TreeEdges, lv.Inherited, lv.Recovered,
					lv.Kept, lv.SigmaSqEst, lv.VerifiedCond)
			}
		}
		return
	}
	if !res.Sharded {
		fmt.Printf("backbone: max-weight tree, total stretch %.3e\n", res.TotalStretch)
		fmt.Printf("time: %s in %d densification rounds, verify %s\n",
			res.Timings.Sparsify.Round(time.Millisecond), len(res.Rounds), res.Timings.Verify.Round(time.Millisecond))
		if verbose {
			printRounds(res.Rounds)
		}
		return
	}
	fmt.Printf("sharding: %d parts, cut=%d edges (%d stitched, %d recovered)\n",
		res.Parts, res.CutEdges, res.StitchedCut, res.RecoveredCut)
	fmt.Printf("time: %s total  (partition %s, shards %s wall / %s cpu = %.2fx parallel, stitch %s, verify %s)\n",
		res.Timings.Wall.Round(time.Millisecond),
		res.Timings.Partition.Round(time.Millisecond),
		res.Timings.Shard.Round(time.Millisecond), res.Timings.ShardCPU.Round(time.Millisecond), res.Speedup(),
		res.Timings.Stitch.Round(time.Millisecond), res.Timings.Verify.Round(time.Millisecond))
	if verbose {
		for _, sh := range res.Shards {
			fmt.Printf("shard %d: |V|=%d |E|=%d kept=%d σ²=%.1f in %s\n",
				sh.Shard, sh.Vertices, sh.Edges, sh.Kept, sh.SigmaSqAchieved,
				sh.Duration.Round(time.Millisecond))
			printRounds(sh.Rounds)
		}
	}
}

// runUpdateStream replays an edge-event file through a maintenance Stream
// and compares the cumulative incremental cost against one from-scratch
// re-sparsification of the final graph. Both the stream's rebuilds and
// the final reference run go through the same facade Sparsifier, so
// -mode/-workers apply uniformly.
func runUpdateStream(g *graphspar.Graph, s *graphspar.Sparsifier, path, out string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	batches, err := graphspar.ParseEvents(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if len(batches) == 0 {
		fatal(errors.New("update stream holds no events"))
	}

	t0 := time.Now()
	st, err := s.Maintain(context.Background(), g)
	if err != nil {
		fatal(err)
	}
	buildDur := time.Since(t0)
	fmt.Printf("initial sparsifier: |Es|=%d  κ=%.1f (target %.1f) in %s\n",
		st.Sparsifier().M(), st.Cond(), s.Sigma2(), buildDur.Round(time.Millisecond))

	var incDur time.Duration
	applied, rejected := 0, 0
	for i, batch := range batches {
		tb := time.Now()
		err := st.Apply(context.Background(), batch)
		d := time.Since(tb)
		incDur += d
		if errors.Is(err, graphspar.ErrWouldDisconnect) {
			rejected++
			fmt.Printf("batch %3d: %3d updates REJECTED (would disconnect) in %s\n", i+1, len(batch), d.Round(time.Microsecond))
			continue
		}
		if err != nil {
			fatal(fmt.Errorf("batch %d: %w", i+1, err))
		}
		applied++
		fmt.Printf("batch %3d: %3d updates  |E|=%d |Es|=%d  κ=%.1f  %s\n",
			i+1, len(batch), st.Graph().M(), st.Sparsifier().M(), st.Cond(), d.Round(time.Microsecond))
	}
	stats := st.Stats()
	fmt.Printf("stream: %d batches applied, %d rejected; %d inserts admitted, %d tree repairs, %d refilter rounds, %d rebuilds\n",
		applied, rejected, stats.InsertsAdmitted, stats.TreeRepairs, stats.Refilters, stats.Rebuilds)
	if !st.TargetMet() {
		fmt.Printf("warning: final certificate κ=%.1f exceeds the σ² target %.1f (best effort)\n", st.Cond(), s.Sigma2())
	}
	fmt.Printf("incremental time: %s total (%s/batch)\n",
		incDur.Round(time.Millisecond), (incDur / time.Duration(len(batches))).Round(time.Microsecond))

	// Reference: one from-scratch sparsification of the final graph,
	// through the same facade configuration (so sharding flags apply here
	// exactly as they did to the stream's rebuilds).
	tf := time.Now()
	res, err := s.Run(context.Background(), st.Graph())
	if err != nil && !errors.Is(err, graphspar.ErrNoTarget) {
		fatal(err)
	}
	fullDur := time.Since(tf)
	perBatch := incDur / time.Duration(len(batches))
	fmt.Printf("full re-sparsify of final graph: |Es|=%d in %s  (%.1fx the per-batch incremental cost)\n",
		res.Sparsifier.M(), fullDur.Round(time.Millisecond), float64(fullDur)/float64(perBatch))
	save(out, st.Sparsifier())
}

// remoteFlagsOnly rejects every flag in set (the explicitly set ones, as
// flag.Visit lists them) that a -remote replay would drop without a word.
// The replay honours the keys of its stream query q and its own four
// flags: the server, the graph's name, the event file and its wire format.
func remoteFlagsOnly(set []string, q url.Values) error {
	bad := slices.DeleteFunc(slices.Clone(set), func(name string) bool {
		return q.Has(name) || slices.Contains([]string{"graph", "remote", "update-stream", "wire"}, name)
	})
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("-remote does not honour -%s: the server keeps the sparsifier and reports its own lines", strings.Join(bad, ", -"))
}

// runRemoteStream streams an event file to a live server's
// POST /v1/graphs/{name}/stream and relays the NDJSON result lines,
// exiting non-zero if the server reports an error. With wire "binary"
// the text event file is transcoded to the compact binary framing and
// sent under its Content-Type; the response is NDJSON either way.
func runRemoteStream(base, name, path, wire string, q url.Values) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	var body io.Reader = f
	contentType := "application/x-ndjson"
	if wire == "binary" {
		batches, err := graphspar.ParseEvents(f)
		if err != nil {
			fatal(err)
		}
		var buf bytes.Buffer
		if err := graphspar.WriteBinaryEvents(&buf, batches); err != nil {
			fatal(err)
		}
		body = &buf
		contentType = graphspar.BinaryEventsContentType
	}
	endpoint := strings.TrimSuffix(base, "/") + "/v1/graphs/" + url.PathEscape(name) + "/stream?" + q.Encode()
	resp, err := http.Post(endpoint, contentType, body)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fatal(fmt.Errorf("server returned %s: %s", resp.Status, strings.TrimSpace(string(body))))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	failed := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fmt.Println(line)
		var probe struct {
			Error    string `json:"error"`
			Rejected bool   `json:"rejected"`
		}
		if json.Unmarshal([]byte(line), &probe) == nil && probe.Error != "" && !probe.Rejected {
			failed = true
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if failed {
		fatal(errors.New("remote stream reported a fatal error (see output above)"))
	}
}

func printRounds(rounds []graphspar.RoundStats) {
	fmt.Println("round  λmax     λmin   σ²est   θσ         cand  added  |Es|")
	for _, r := range rounds {
		fmt.Printf("%5d  %7.2f  %5.3f  %6.1f  %9.3e  %4d  %5d  %d\n",
			r.Round, r.LambdaMax, r.LambdaMin, r.SigmaSqEst, r.Threshold, r.Candidates, r.Added, r.EdgesTotal)
	}
}

func save(out string, g *graphspar.Graph) {
	if out == "" {
		return
	}
	if err := graphspar.SaveGraph(out, g); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sparsify:", err)
	os.Exit(1)
}
