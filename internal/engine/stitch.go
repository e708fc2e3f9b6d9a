package engine

import (
	"context"
	"fmt"
	"sort"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/graph"
	"graphspar/internal/lsst"
	"graphspar/internal/obs"
	"graphspar/internal/partition"
)

// stitch merges the per-shard sparsifiers and splits the partition's cut
// edges into the connectivity backbone and the re-filter candidates: cut
// edges are scanned heaviest-first (Kruskal on the shard quotient,
// matching the max-weight backbone philosophy — heavy edges have low
// resistance) and the ones joining two components are kept outright; the
// rest go to the global heat filter. The returned kept set spans every
// vertex and is connected because the input is.
func stitch(g *graph.Graph, labels []int, outs []shardOut) (keptIDs, stitchedIDs, candIDs []int) {
	n := g.N()
	uf := lsst.NewUnionFind(n)
	seen := make([]bool, g.M())
	for _, out := range outs {
		for _, id := range out.stats.EdgeIDs {
			if seen[id] {
				continue
			}
			seen[id] = true
			e := g.Edge(id)
			uf.Union(e.U, e.V)
			keptIDs = append(keptIDs, id)
		}
	}
	var cut []int
	for id, e := range g.Edges() {
		if labels[e.U] != labels[e.V] {
			cut = append(cut, id)
		}
	}
	sort.Slice(cut, func(a, b int) bool {
		wa, wb := g.Edge(cut[a]).W, g.Edge(cut[b]).W
		if wa != wb {
			return wa > wb
		}
		return cut[a] < cut[b]
	})
	for _, id := range cut {
		e := g.Edge(id)
		if uf.Union(e.U, e.V) {
			stitchedIDs = append(stitchedIDs, id)
			keptIDs = append(keptIDs, id)
		} else {
			candIDs = append(candIDs, id)
		}
	}
	sort.Ints(candIDs)
	return keptIDs, stitchedIDs, candIDs
}

// runSharded executes the sharded plan: partition, sparsify the shards
// concurrently, stitch, and re-filter the partition's cut. The returned
// solver is the re-filter's last factorization of res.Sparsifier when
// there is one (see certify); the kept-whole-cut branch never factors the
// stitched graph and returns nil.
func (res *Result) runSharded(ctx context.Context, g *graph.Graph, opt Options) (*cholesky.LapSolver, error) {
	// The partition span covers the bisection and its materialisation —
	// buildTasks' induced subgraphs and component scans — so the time
	// between the cut and the first shard is not left outside every span.
	partSpan := obs.StartSpan(ctx, "partition")
	// The O(n+m) BFS level-set bisector: the partitioner must cost far
	// less than the sparsifications it feeds, and a spectral cut would
	// factor or sparsify the whole graph first.
	kw, err := partition.RecursiveBisect(g, opt.Shards, partition.Options{Method: partition.BFS, Seed: opt.Sparsify.Seed})
	if err != nil {
		partSpan.End()
		return nil, fmt.Errorf("engine: partition: %w", err)
	}
	res.Labels, res.Parts = kw.Labels, kw.Parts
	tasks, err := buildTasks(g, kw.Labels, kw.Parts)
	res.Timings.Partition = partSpan.End()
	if err != nil {
		return nil, err
	}
	shardSpan := obs.StartSpan(ctx, "shard")
	outs, err := runShards(ctx, g, tasks, opt)
	res.Timings.Shard = shardSpan.End()
	if err != nil {
		return nil, err
	}
	for _, out := range outs {
		res.Shards = append(res.Shards, out.stats)
		res.Timings.ShardCPU += out.stats.Duration
	}

	var solver *cholesky.LapSolver
	stitchSpan := obs.StartSpan(ctx, "stitch")
	keptIDs, stitchedIDs, candIDs := stitch(g, kw.Labels, outs)
	res.CutEdges = len(stitchedIDs) + len(candIDs)
	res.StitchedCut = len(stitchedIDs)

	if float64(len(candIDs)) <= cutFilterFraction*float64(len(keptIDs)) {
		// Small cut: keep it whole. The guarantee is exact (see
		// cutFilterFraction) and the certified bound is the worst shard's
		// achieved σ².
		keptIDs = append(keptIDs, candIDs...)
		p, err := g.SubgraphEdges(keptIDs)
		if err != nil {
			return nil, fmt.Errorf("engine: stitched graph: %w", err)
		}
		res.RecoveredCut = len(candIDs)
		res.Sparsifier = p
		worst := 1.0
		for _, s := range res.Shards {
			if s.SigmaSqAchieved > worst {
				worst = s.SigmaSqAchieved
			}
		}
		res.LambdaMax, res.LambdaMin = worst, 1
	} else {
		// Global embedding pass(es): estimate the extreme generalized
		// eigenvalues of (L_G, L_P) on the stitched graph, and while the σ²
		// target is unmet, recover the cut edges whose normalized Joule
		// heat beats the similarity-aware threshold (eq. 15).
		rSpan := obs.StartSpan(ctx, "refilter")
		p, _, recovered, lmax, lmin, solverR, err := core.RefilterFactored(ctx, g, keptIDs, candIDs, opt.Sparsify, core.RefilterRounds, opt.Workers, opt.Sparsify.Seed^0x5717c4)
		rSpan.End()
		if err != nil {
			if ctx.Err() == nil {
				err = fmt.Errorf("engine: global %w", err)
			}
			return nil, err
		}
		res.RecoveredCut = recovered
		res.Sparsifier, solver = p, solverR
		res.LambdaMax, res.LambdaMin = lmax, lmin
	}
	if res.LambdaMin > 0 {
		res.SigmaSqEst = res.LambdaMax / res.LambdaMin
	}
	res.Timings.Stitch = stitchSpan.End()
	res.TargetMet = res.SigmaSqEst > 0 && res.SigmaSqEst <= opt.Sparsify.SigmaSq
	return solver, nil
}
