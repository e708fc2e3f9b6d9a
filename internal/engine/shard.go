package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"graphspar/internal/core"
	"graphspar/internal/graph"
)

// shardTask is one unit of shard work: a connected set of vertices (one
// connected component of one part — a part the cut disconnected yields
// several tasks, since core.Sparsify requires connected input). The
// induced subgraph is captured at build time so workers don't rescan the
// input edge list.
type shardTask struct {
	part    int
	sub     *graph.Graph
	mapping []int // sub vertex id → global vertex id
}

// shardOut is one finished task.
type shardOut struct {
	stats ShardStats
}

// buildTasks splits every part into its connected components. Singleton
// components carry no edges and are skipped; the stitching phase
// reconnects their vertices through cut edges.
func buildTasks(g *graph.Graph, labels []int, parts int) ([]shardTask, error) {
	byPart := make([][]int, parts)
	for v, l := range labels {
		byPart[l] = append(byPart[l], v)
	}
	var tasks []shardTask
	for part, verts := range byPart {
		if len(verts) < 2 {
			continue
		}
		sub, mapping, err := g.InducedSubgraph(verts)
		if err != nil {
			return nil, fmt.Errorf("engine: shard %d: %w", part, err)
		}
		comps, count := sub.Components()
		if count == 1 {
			tasks = append(tasks, shardTask{part: part, sub: sub, mapping: mapping})
			continue
		}
		groups := make([][]int, count)
		for i, c := range comps {
			groups[c] = append(groups[c], mapping[i])
		}
		for _, grp := range groups {
			if len(grp) < 2 {
				continue
			}
			csub, cmapping, err := g.InducedSubgraph(grp)
			if err != nil {
				return nil, fmt.Errorf("engine: shard %d component: %w", part, err)
			}
			tasks = append(tasks, shardTask{part: part, sub: csub, mapping: cmapping})
		}
	}
	return tasks, nil
}

// runShards sparsifies every task over a bounded worker pool. The first
// hard error cancels the remaining work; per-shard ErrNoTarget is
// recorded in the stats, not treated as failure.
func runShards(ctx context.Context, g *graph.Graph, tasks []shardTask, opt Options) ([]shardOut, error) {
	edgeIdx := g.EdgeIndex() // read-only, shared across workers

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := opt.Workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}

	outs := make([]shardOut, len(tasks))
	jobs := make(chan int)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range jobs {
				if runCtx.Err() != nil {
					continue // drain; the pool is shutting down
				}
				out, err := runShard(runCtx, g, edgeIdx, tasks[ti], opt, ti)
				if err != nil {
					fail(err)
					continue
				}
				outs[ti] = out
			}
		}()
	}
	for i := range tasks {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return outs, nil
}

// runShard sparsifies one induced shard and maps the kept edges back to
// global edge ids.
func runShard(ctx context.Context, g *graph.Graph, edgeIdx map[[2]int]int, task shardTask, opt Options, idx int) (shardOut, error) {
	start := time.Now()
	sub, mapping := task.sub, task.mapping
	sopt := opt.Sparsify
	sopt.EmbedWorkers = 1 // the shard pool is the parallelism here
	// Offset by one so shard 0 does not reuse the master seed, which
	// drives the partitioner and the global pass.
	sopt.Seed = core.DeriveSeed(opt.Sparsify.Seed, idx+1)
	res, err := core.SparsifyCtx(ctx, sub, sopt)
	if err != nil && !errors.Is(err, core.ErrNoTarget) {
		return shardOut{}, fmt.Errorf("engine: shard %d (%d vertices): %w", task.part, sub.N(), err)
	}
	ids := make([]int, 0, res.Sparsifier.M())
	for _, e := range res.Sparsifier.Edges() {
		u, v := mapping[e.U], mapping[e.V]
		if u > v {
			u, v = v, u
		}
		id, ok := edgeIdx[[2]int{u, v}]
		if !ok {
			return shardOut{}, fmt.Errorf("engine: shard %d kept edge (%d,%d) that is not in the input", task.part, u, v)
		}
		ids = append(ids, id)
	}
	return shardOut{stats: ShardStats{
		Shard:           task.part,
		Vertices:        sub.N(),
		Edges:           sub.M(),
		Kept:            res.Sparsifier.M(),
		SigmaSqAchieved: res.SigmaSqAchieved,
		TargetMet:       err == nil,
		Rounds:          res.Rounds,
		Duration:        time.Since(start),
		EdgeIDs:         ids,
	}}, nil
}
