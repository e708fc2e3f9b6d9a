package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// workers is the explicit worker count of every WithWorkers / server
// worker knob, and the GOMAXPROCS ceiling: load is generated by one
// process with at most two threads of work.
const workers = 2

// refSeconds is the -seconds value the frozen op counts below were tuned
// for on the 2-core reference box; other values scale the schedule length
// linearly, so a run still executes a fixed list of ops, never a duration.
const refSeconds = 12

// instance is one set-up workload: inputs generated, schedule fixed,
// initial builds done, one full op run as warm-up.
type instance interface {
	clients() int
	// op runs client c's i-th scheduled op. Stage spans go to tr under
	// the op span parent (tr may be nil). The returned error makes the op
	// count as failed. Anything op checks that the user would not pay for
	// is done in verify, outside the timed window.
	op(ctx context.Context, c, i int, tr *tracer, parent int) error
	// verify checks the output of client c's i-th op, outside the timed
	// window on batch workloads.
	verify(c, i int) error
	// finish runs the end-of-run checks and returns the final (G, P) pairs.
	finish(ctx context.Context) ([]pair, error)
	// scheduleHash fingerprints the generated inputs and schedule.
	scheduleHash() string
	// regenerate rebuilds the input graph and drops it: the gen probe.
	regenerate() error
	// layers adds the workload's own per-layer metrics after a traced run.
	layers(ctx context.Context, spans []Span, m map[string]float64) error
	close()
}

type workloadDef struct {
	name string
	why  string
	// batch workloads run runtime.GC() between ops outside the timed
	// window; stream and serve workloads do not — sustained GC is part of
	// their cost.
	batch bool
	// opsAtRef is the timed op count per client at -seconds refSeconds.
	opsAtRef int
	setup    func(ctx context.Context, seed uint64, ops int, quick bool) (instance, error)
}

var workloads = []workloadDef{
	{"mesh_solve", "paper's use case: single-shot sparsify, factor, 4 PCG solves to 1e-6 on a 2-D mesh; lsst/core/cholesky/pcg do all the work", true, 10, setupMeshSolve},
	{"mesh_sharded", "default user on a big mesh: ModeAuto picks 4 shards on 2 workers; partition, engine and the Lanczos certificate dominate", true, 10, setupMeshSharded},
	{"sbm_multilevel", "cut-heavy community graph through ModeMultilevel then factor and solve; multigrid, multilevel and core.Refilter dominate", true, 10, setupSBMMultilevel},
	{"stream_mixed", "Stream.Apply of 8 updates, 80% switch reweights (rank-1 path) and 20% churn (tree repair, refactor): the same layers used as writes", false, 300, setupStreamMixed},
	{"serve_txn", "2 closed-loop clients run a fixed 6-request transaction against the in-process daemon on a small graph: service, wire decoders, sessions, cache", false, 600, setupServeTxn},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// opCount scales the frozen count to -seconds, never below minTail so the
// median always has its ten samples (quick runs are exempt).
func (w workloadDef) opCount(seconds int, quick bool) int {
	if quick {
		if w.batch {
			return 2
		}
		return 12
	}
	n := (w.opsAtRef*seconds + refSeconds/2) / refSeconds
	return max(n, minTail)
}

// sample is one timed op.
type sample struct {
	client, index int
	ms            float64
	err           error
}

// runResult is the timed region's outcome.
type runResult struct {
	samples []sample
	wallS   float64 // timed wall: ops only, inter-op GC and checks excluded
}

func (r runResult) failed() int {
	n := 0
	for _, s := range r.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

func (r runResult) latencies() []float64 {
	var ms []float64
	for _, s := range r.samples {
		if s.err == nil {
			ms = append(ms, s.ms)
		}
	}
	return ms
}

func (r runResult) firstErr() error {
	for _, s := range r.samples {
		if s.err != nil {
			return fmt.Errorf("client %d op %d: %w", s.client, s.index, s.err)
		}
	}
	return nil
}

// runOps executes the first n ops of every client, closed loop: each client
// issues its next op only after the previous one returned, and one
// goroutine per client issues that client's ops in schedule order. With
// traceOn(i) true the op is wrapped in an op span and records stage spans.
func runOps(ctx context.Context, w workloadDef, inst instance, n int, tr *tracer, traceOn func(i int) bool) runResult {
	nc := inst.clients()
	per := make([][]sample, nc)
	var pause time.Duration // single-client batch workloads only
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if ctx.Err() != nil {
					per[c] = append(per[c], sample{c, i, 0, ctx.Err()})
					continue
				}
				var t *tracer
				if traceOn != nil && traceOn(i) {
					t = tr
				}
				span := t.beginOp(c*1_000_000 + i)
				t0 := time.Now()
				err := inst.op(ctx, c, i, t, span)
				d := time.Since(t0)
				t.end(span)
				p0 := time.Now()
				if err == nil {
					err = inst.verify(c, i)
				}
				if w.batch {
					runtime.GC()
					pause += time.Since(p0)
				}
				per[c] = append(per[c], sample{c, i, float64(d) / float64(time.Millisecond), err})
			}
		}(c)
	}
	wg.Wait()
	res := runResult{wallS: (time.Since(start) - pause).Seconds()}
	for _, s := range per {
		res.samples = append(res.samples, s...)
	}
	return res
}

// hasher accumulates the schedule fingerprint.
type hasher struct{ h [32]byte }

func (h *hasher) add(b []byte) {
	sum := sha256.New()
	sum.Write(h.h[:])
	sum.Write(b)
	copy(h.h[:], sum.Sum(nil))
}

func (h *hasher) String() string { return hex.EncodeToString(h.h[:8]) }

var errNotMet = errors.New("σ² target not met")
