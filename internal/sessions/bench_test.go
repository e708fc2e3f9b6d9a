package sessions_test

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"

	"graphspar/internal/core"
	"graphspar/internal/dynamic"
	"graphspar/internal/engine"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/sessions"
	"graphspar/internal/testkit"
	"graphspar/internal/vecmath"
)

// BenchmarkStreamReplay replays a recorded temporal switching sequence —
// edges toggling between their base weight and a collapsed weight, the
// power-grid breaker workload of John & Safro (arXiv:1601.05527) — two
// ways:
//
//   - resident: through one session-held maintainer, the way the service
//     serves a stream or a PATCH against a warm session (per batch: one
//     incremental Apply);
//   - resume: through per-request dynamic.Resume from the previous
//     result's sparsifier — the cold path every incremental job paid
//     before persistent sessions (per batch: full reconcile + re-embed).
//
// The acceptance bar for the session subsystem is resident ≥ 3× faster
// per batch. Metrics are published to BENCH_stream.json when
// BENCH_STREAM_JSON names a path (the CI bench step does).
func BenchmarkStreamReplay(b *testing.B) {
	const (
		sigmaSq  = 100
		nBatches = 8
		size     = 16
		factor   = 1e-3
	)
	graphs := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"grid48", func() (*graph.Graph, error) { return gen.Grid2D(48, 48, gen.UniformWeights, 11) }},
		// Two dense "substations" joined by a long corridor: the shape of
		// a switching-sequence power-grid study, with enough vertices that
		// the cold path's fresh ordering/embedding actually bites.
		{"barbell", func() (*graph.Graph, error) { return gen.Barbell(24, 1500, gen.UniformWeights, 11) }},
	}
	for _, tc := range graphs {
		b.Run(tc.name, func(b *testing.B) {
			g, err := tc.build()
			if err != nil {
				b.Fatal(err)
			}
			opt := engine.Options{Sparsify: core.Options{SigmaSq: sigmaSq, Seed: 1}}
			ctx := context.Background()

			// Switching happens on redundant lines: toggle edges outside
			// the sparsifier, the regime where the resident maintainer
			// re-verifies without refactoring (deleting a breaker-opened
			// line never tears the backbone).
			probe, err := dynamic.New(ctx, g, opt)
			if err != nil {
				b.Fatal(err)
			}
			inSpars := make(map[[2]int]bool, probe.Sparsifier().M())
			for _, e := range probe.Sparsifier().Edges() {
				inSpars[[2]int{e.U, e.V}] = true
			}
			var eligible []int
			for id, e := range g.Edges() {
				if !inSpars[[2]int{e.U, e.V}] {
					eligible = append(eligible, id)
				}
			}
			batches := testkit.SwitchingSequence(g, vecmath.NewRNG(97), nBatches, size, factor, eligible)

			var residentTot, resumeTot time.Duration
			var finalCond float64
			for i := 0; i < b.N; i++ {
				// Resident session: one maintainer build, then incremental
				// applies through the session's actor loop.
				m, err := dynamic.New(ctx, g, opt)
				if err != nil {
					b.Fatal(err)
				}
				mgr := sessions.NewManager(sessions.Options{})
				sess := mgr.Install(tc.name, "bench", m)
				t0 := time.Now()
				for _, batch := range batches {
					batch := batch
					if err := sess.DoMutate(ctx, func(mm sessions.Maintainer) (string, error) {
						return "", mm.Apply(ctx, batch)
					}); err != nil {
						b.Fatal(err)
					}
				}
				residentTot += time.Since(t0)
				st, err := sess.Stats(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if !st.TargetMet {
					b.Fatalf("resident replay lost the certificate: %+v", st)
				}
				finalCond = st.Cond

				// Per-request Resume: what each incremental job cost before
				// sessions — reconcile the previous sparsifier against the
				// mutated graph and re-establish the certificate, per batch.
				prev, err := dynamic.New(ctx, g, opt)
				if err != nil {
					b.Fatal(err)
				}
				warm := prev.Sparsifier()
				cur := g
				t1 := time.Now()
				for _, batch := range batches {
					cur, err = dynamic.ApplyToGraph(cur, batch)
					if err != nil {
						b.Fatal(err)
					}
					m2, err := dynamic.Resume(ctx, cur, warm, opt)
					if err != nil {
						b.Fatal(err)
					}
					warm = m2.Sparsifier()
					if !m2.TargetMet() {
						b.Fatalf("resume replay lost the certificate: κ=%v", m2.Cond())
					}
				}
				resumeTot += time.Since(t1)
			}

			residentMs := float64(residentTot.Microseconds()) / 1000 / float64(b.N*nBatches)
			resumeMs := float64(resumeTot.Microseconds()) / 1000 / float64(b.N*nBatches)
			speedup := resumeMs / residentMs
			b.ReportMetric(residentMs, "resident-ms/batch")
			b.ReportMetric(resumeMs, "resume-ms/batch")
			b.ReportMetric(speedup, "speedup")
			b.ReportMetric(finalCond, "κ")
			if speedup < 3 {
				b.Errorf("session-resident replay only %.2fx faster than per-request Resume (want >= 3x)", speedup)
			}
			publishStreamBench(b, tc.name, map[string]float64{
				"batches":           float64(nBatches),
				"batch_size":        float64(size),
				"sigma2":            sigmaSq,
				"resident_ms_batch": residentMs,
				"resume_ms_batch":   resumeMs,
				"speedup":           speedup,
				"cond":              finalCond,
			})
		})
	}
}

var (
	streamBenchMu      sync.Mutex
	streamBenchResults = map[string]any{}
)

func publishStreamBench(b *testing.B, name string, metrics map[string]float64) {
	b.Helper()
	streamBenchMu.Lock()
	defer streamBenchMu.Unlock()
	streamBenchResults[name] = metrics
	path := os.Getenv("BENCH_STREAM_JSON")
	if path == "" {
		return
	}
	out := map[string]any{
		"benchmark": "BenchmarkStreamReplay",
		"workload":  "temporal switching sequence (reweight toggles)",
		"results":   streamBenchResults,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
}
