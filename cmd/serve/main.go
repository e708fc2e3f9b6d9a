// Command serve runs sparsifyd, the long-running HTTP sparsification
// service: a graph registry (MatrixMarket uploads or generator specs), an
// async job queue bounded by a worker pool, an LRU result cache, and
// persistent maintainer sessions that serve PATCH batches, streamed
// update ingestion and incremental jobs from resident state.
//
// Usage:
//
//	serve -addr :8080 -workers 4 -backlog 64 -cache 128
//	serve -addr :8080 -preload grid40=grid:40x40:uniform -preload road=usroads.mtx
//	serve -addr :8080 -session-max 32 -session-budget-mb 1024 -session-ttl 15m
//
// See README.md for the HTTP API and curl examples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"graphspar/internal/cli"
	"graphspar/internal/obs"
	"graphspar/internal/service"
)

// preloads collects repeated -preload name=spec flags.
type preloads []string

func (p *preloads) String() string { return strings.Join(*p, ",") }
func (p *preloads) Set(s string) error {
	if !strings.Contains(s, "=") {
		return errors.New("want name=spec")
	}
	*p = append(*p, s)
	return nil
}

func main() {
	var pre preloads
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 4, "concurrent sparsification jobs")
		backlog = flag.Int("backlog", 64, "queued jobs beyond the running ones")
		cache   = flag.Int("cache", 128, "result-cache capacity (0 disables)")
		seed    = flag.Uint64("seed", 1, "seed for -preload generator specs")

		sessMax    = flag.Int("session-max", 32, "resident maintainer sessions for true-streaming PATCH/incremental serving (0 disables)")
		sessBudget = flag.Int("session-budget-mb", 1024, "memory budget for resident sessions, MiB (estimated)")
		sessTTL    = flag.Duration("session-ttl", 15*time.Minute, "evict sessions idle this long (0 = never expire)")

		admitQueue   = flag.Int("admit-queue-high", 0, "shed job submissions with 429 once this many jobs are queued (0 = 3/4 of backlog, -1 disables)")
		admitStreams = flag.Int("admit-streams-high", 0, "shed stream requests with 429 beyond this many in flight (0 = 4x workers, -1 disables)")
		admitRetry   = flag.Int("admit-retry-after", 1, "Retry-After seconds advertised on 429 responses")

		withPprof = flag.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/")
	)
	flag.Var(&pre, "preload", "register name=SPEC at startup (repeatable); "+cli.SpecHelp)
	flag.Parse()

	// Config treats 0 as "use the default", so translate the flags' "0
	// disables" convention into the explicit negative form.
	disableZero := func(v int) int {
		if v == 0 {
			return -1
		}
		return v
	}
	ttl := *sessTTL
	if ttl == 0 {
		ttl = -1 // sessions.Options: negative = never expire
	}
	// Admission control is on by default in the binary (the library's
	// Config leaves it off): shed with 429 + Retry-After at 3/4 of the
	// backlog rather than queueing into unbounded job_wait_seconds, and
	// bound concurrently held stream requests at 4x the worker pool.
	queueHigh := *admitQueue
	if queueHigh == 0 {
		queueHigh = (disableZero(*backlog) * 3) / 4
		if queueHigh < 1 {
			queueHigh = 1
		}
	}
	streamsHigh := *admitStreams
	if streamsHigh == 0 {
		streamsHigh = 4 * *workers
	}
	srv := service.NewServer(service.Config{
		Workers:             *workers,
		Backlog:             disableZero(*backlog),
		CacheSize:           disableZero(*cache),
		Sparsify:            runSparsify,
		Maintain:            runMaintain,
		SessionMax:          disableZero(*sessMax),
		SessionBudgetBytes:  int64(*sessBudget) << 20,
		SessionTTL:          ttl,
		AdmissionQueueHigh:  queueHigh,
		AdmissionStreamHigh: streamsHigh,
		AdmissionRetryAfter: *admitRetry,
		// The default registry also carries the pipeline's per-phase
		// histograms, so one /metrics scrape covers HTTP, queue, session
		// and phase telemetry.
		Metrics: obs.Default,
	})
	for _, p := range pre {
		name, spec, _ := strings.Cut(p, "=")
		g, err := cli.LoadGraph(spec, *seed)
		if err != nil {
			fatal(fmt.Errorf("preload %s: %w", name, err))
		}
		// Same gate the HTTP registration paths apply: fail at boot, not
		// on the first job.
		if err := g.RequireConnected(); err != nil {
			fatal(fmt.Errorf("preload %s: %w", name, err))
		}
		entry, err := srv.Registry().Register(name, spec, g)
		if err != nil {
			fatal(fmt.Errorf("preload %s: %w", name, err))
		}
		log.Printf("preloaded %s: |V|=%d |E|=%d hash=%s", name, entry.N, entry.M, entry.Hash[:12])
	}

	handler := srv.Handler()
	if *withPprof {
		// Mount the profiling handlers on an explicit outer mux rather
		// than relying on pprof's DefaultServeMux registration, so they
		// exist only when asked for and bypass the API middleware.
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", handler)
		handler = outer
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("sparsifyd listening on %s (workers=%d backlog=%d cache=%d sessions=%d budget=%dMiB ttl=%s admit-queue=%d admit-streams=%d)",
		*addr, *workers, *backlog, *cache, *sessMax, *sessBudget, *sessTTL, queueHigh, streamsHigh)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case s := <-sig:
		log.Printf("received %s, shutting down", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Queue().Shutdown(ctx); err != nil {
		log.Printf("queue shutdown: %v", err)
	}
	// Drain resident sessions last: batches their actors already accepted
	// finish applying (registry and maintainers stay in lockstep), then
	// the maintainers are released.
	if m := srv.Sessions(); m != nil {
		if err := m.Close(ctx); err != nil {
			log.Printf("session drain: %v", err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "serve:", err)
	os.Exit(1)
}
