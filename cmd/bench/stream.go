package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"graphspar"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/vecmath"
)

const (
	streamGraphSeed = 1
	// The update schedule is pinned like the graph: it decides the final
	// (G, P), and κ̂ of a sparsifier lands anywhere in a wide band under σ²
	// depending on which edges it holds. Drawn from -seed, cond_ratio
	// spread 8% between seeds here and 40% on serve_txn — wider than any
	// bound could referee.
	streamScheduleSeed = 1
	batchUpdates       = 8 // updates per Stream.Apply and per serve_txn stream request
)

// isChurn: batches 5k+4 are churn, the other 80% switch.
func isChurn(k int) bool { return k%5 == 4 }

// reweightBatch draws batchUpdates distinct existing edges and scales each
// weight by a factor in [0.5, 1.5).
func reweightBatch(g *graph.Graph, rng *vecmath.RNG, n int) []graphspar.Update {
	edges := g.Edges()
	seen := make(map[int]bool, n)
	batch := make([]graphspar.Update, 0, n)
	for len(batch) < n {
		i := rng.Intn(len(edges))
		if seen[i] {
			continue
		}
		seen[i] = true
		e := edges[i]
		batch = append(batch, graphspar.Reweight(e.U, e.V, e.W*(0.5+rng.Float64())))
	}
	return batch
}

// churnBatch is balanced: 3 short-chord inserts (grid diagonals and
// distance-2 chords, the ECO-style local rewiring a mesh sees), 3 deletes
// and 2 reweights, all on distinct edges. It may still be rejected as a
// whole (a delete can cut off a corner); the caller validates and redraws.
func churnBatch(g *graph.Graph, side int, rng *vecmath.RNG) []graphspar.Update {
	used := make(map[[2]int]bool, batchUpdates)
	key := func(u, v int) [2]int { return [2]int{min(u, v), max(u, v)} }
	var batch []graphspar.Update
	chords := [][2]int{{1, 1}, {1, -1}, {0, 2}, {2, 0}}
	for len(batch) < 3 {
		r, c := rng.Intn(side), rng.Intn(side)
		d := chords[rng.Intn(len(chords))]
		r2, c2 := r+d[0], c+d[1]
		if r2 < 0 || r2 >= side || c2 < 0 || c2 >= side {
			continue
		}
		u, v := r*side+c, r2*side+c2
		if g.HasEdge(u, v) || used[key(u, v)] {
			continue
		}
		used[key(u, v)] = true
		batch = append(batch, graphspar.Insert(u, v, 0.1+rng.Float64()))
	}
	edges := g.Edges()
	for len(batch) < batchUpdates {
		e := edges[rng.Intn(len(edges))]
		if used[key(e.U, e.V)] {
			continue
		}
		used[key(e.U, e.V)] = true
		if len(batch) < 6 {
			batch = append(batch, graphspar.Delete(e.U, e.V))
		} else {
			batch = append(batch, graphspar.Reweight(e.U, e.V, e.W*(0.5+rng.Float64())))
		}
	}
	return batch
}

// streamSchedule generates n batches against a twin of g that it mutates
// with graphspar.ApplyUpdates, so every batch is valid against the graph
// the stream will hold when the batch arrives. It returns the batches and
// the twin after the last one.
func streamSchedule(g *graph.Graph, side int, seed uint64, n int) ([][]graphspar.Update, *graph.Graph, error) {
	rng := vecmath.NewRNG(seed)
	twin := g
	batches := make([][]graphspar.Update, 0, n)
	for k := 0; k < n; k++ {
		var batch []graphspar.Update
		var next *graph.Graph
		var err error
		for try := 0; ; try++ {
			if isChurn(k) {
				batch = churnBatch(twin, side, rng)
			} else {
				batch = reweightBatch(twin, rng, batchUpdates)
			}
			if next, err = graphspar.ApplyUpdates(twin, batch); err == nil {
				break
			}
			if !errors.Is(err, graphspar.ErrWouldDisconnect) || try == 20 {
				return nil, nil, fmt.Errorf("schedule batch %d: %w", k, err)
			}
		}
		batches = append(batches, batch)
		twin = next
	}
	return batches, twin, nil
}

type streamInst struct {
	side    int
	st      *graphspar.Stream
	batches [][]graphspar.Update // [0] is the warm-up's, op i applies [i+1]
	twin    *graph.Graph
	hash    hasher
	buildMs float64
}

func setupStreamMixed(ctx context.Context, _ uint64, ops int, quick bool) (instance, error) {
	side := 128
	if quick {
		side = 24
	}
	g, err := gen.Grid2D(side, side, gen.UniformWeights, streamGraphSeed)
	if err != nil {
		return nil, err
	}
	in := &streamInst{side: side}
	if in.batches, in.twin, err = streamSchedule(g, side, streamScheduleSeed, ops+1); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := graphspar.WriteEvents(&buf, in.batches); err != nil {
		return nil, err
	}
	in.hash.add([]byte(g.ContentHash()))
	in.hash.add(buf.Bytes()) // the schedule in the text wire format is its fingerprint

	sp, err := graphspar.New(graphspar.WithSigma2(sigma2), graphspar.WithSeed(sparsifierSeed), graphspar.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if in.st, err = sp.Maintain(ctx, g); err != nil {
		return nil, fmt.Errorf("maintain: %w", err)
	}
	in.buildMs = ms(time.Since(t0))
	if err := in.op(ctx, 0, -1, nil, 0); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return in, in.verify(0, -1)
}

func (in *streamInst) clients() int         { return 1 }
func (in *streamInst) scheduleHash() string { return in.hash.String() }
func (in *streamInst) close()               {}

func (in *streamInst) regenerate() error {
	_, err := gen.Grid2D(in.side, in.side, gen.UniformWeights, streamGraphSeed)
	return err
}

func (in *streamInst) op(ctx context.Context, _, i int, tr *tracer, parent int) error {
	name := "Stream.Apply/switch"
	if isChurn(i + 1) {
		name = "Stream.Apply/churn"
	}
	var ptr *graphspar.Trace
	if tr != nil {
		ctx, ptr = graphspar.NewTraceContext(ctx)
	}
	id := tr.begin(parent, name, "dynamic")
	err := in.st.Apply(ctx, in.batches[i+1])
	tr.end(id)
	if ptr != nil {
		tr.addPhases(id, ptr.Phases())
	}
	return err
}

func (in *streamInst) verify(_, _ int) error {
	if !in.st.TargetMet() {
		return errNotMet
	}
	return nil
}

func (in *streamInst) finish(context.Context) ([]pair, error) {
	if got, want := in.st.Graph().ContentHash(), in.twin.ContentHash(); got != want {
		return nil, fmt.Errorf("check: stream graph hash %s differs from the locally mutated twin %s", got, want)
	}
	return []pair{{in.st.Graph(), in.st.Sparsifier()}}, nil
}

// spanMedianMs is the median duration of the spans with the given name.
func spanMedianMs(spans []Span, name string) float64 {
	var v []float64
	for _, s := range spans {
		if s.Name == name {
			v = append(v, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return median(v)
}

func (in *streamInst) layers(_ context.Context, spans []Span, m map[string]float64) error {
	m["dynamic.build_ms"] = in.buildMs
	m["dynamic.apply_switch_p50_ms"] = spanMedianMs(spans, "Stream.Apply/switch")
	m["dynamic.apply_churn_p50_ms"] = spanMedianMs(spans, "Stream.Apply/churn")
	st := in.st.Stats()
	rank1 := float64(st.FactorUpdates + st.FactorDowndates)
	if tot := rank1 + float64(st.FactorRebuilds); tot > 0 {
		m["dynamic.rank1_share"] = rank1 / tot
	}
	m["dynamic.factor_rebuilds"] = float64(st.FactorRebuilds)
	m["dynamic.tree_repairs"] = float64(st.TreeRepairs)
	m["dynamic.refilter_rounds"] = float64(st.Refilters)
	m["dynamic.rebuilds"] = float64(st.Rebuilds)
	m["dynamic.resident_mb"] = float64(in.st.ResidentBytes()) / 1e6
	return decodeProbe(in.batches, m)
}

// decodeProbe times both wire decoders over the schedule's own bytes.
func decodeProbe(batches [][]graphspar.Update, m map[string]float64) error {
	var text, bin bytes.Buffer
	if err := graphspar.WriteEvents(&text, batches); err != nil {
		return err
	}
	if err := graphspar.WriteBinaryEvents(&bin, batches); err != nil {
		return err
	}
	var err error
	mbps := func(raw []byte, decode func(*bytes.Reader) error) float64 {
		us := timeMedian(probeReps, func() {
			if e := decode(bytes.NewReader(raw)); e != nil {
				err = e
			}
		})
		return float64(len(raw)) / us // bytes per µs = MB/s
	}
	m["dynamic.decode_text_mbps"] = mbps(text.Bytes(), func(r *bytes.Reader) error { _, e := graphspar.ParseEvents(r); return e })
	m["dynamic.decode_binary_mbps"] = mbps(bin.Bytes(), func(r *bytes.Reader) error { _, e := graphspar.ReadBinaryEvents(r); return e })
	return err
}
