package engine

import (
	"context"
	"fmt"
	"slices"

	"graphspar/internal/graph"
	"graphspar/internal/lsst"
	"graphspar/internal/obs"
	"graphspar/internal/partition"
)

// stitch merges the per-shard sparsifiers and splits the partition's cut
// edges into the connectivity backbone and the re-filter candidates: cut
// edges are scanned heaviest-first (lsst.Heaviest: Kruskal on the shard
// quotient, matching the max-weight backbone — heavy edges have low
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
	stitchedIDs, candIDs = lsst.Heaviest(g, cut, uf)
	slices.Sort(candIDs)
	return append(keptIDs, stitchedIDs...), stitchedIDs, candIDs
}

// runSharded executes the sharded plan: partition, sparsify the shards
// concurrently, stitch, and re-filter the partition's cut. The returned
// selection holds the re-filter's last factorization of P when there is
// one; the kept-whole-cut branch never factors the stitched graph.
func (res *Result) runSharded(ctx context.Context, g *graph.Graph, opt Options) (*selection, error) {
	// The partition span covers the bisection and its materialisation —
	// buildTasks' induced subgraphs and component scans — so the time
	// between the cut and the first shard is not left outside every span.
	partSpan := obs.StartSpan(ctx, "partition")
	// The O(n+m) BFS level-set bisector: the partitioner must cost far
	// less than the sparsifications it feeds, and a spectral cut would
	// factor or sparsify the whole graph first.
	kw, err := partition.RecursiveBisect(g, Shards, partition.Options{Method: partition.BFS, Seed: opt.Sparsify.Seed})
	if err != nil {
		partSpan.End()
		return nil, fmt.Errorf("engine: partition: %w", err)
	}
	res.Parts = kw.Parts
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

	stitchSpan := obs.StartSpan(ctx, "stitch")
	defer func() { res.Timings.Stitch = stitchSpan.End() }()
	keptIDs, stitchedIDs, candIDs := stitch(g, kw.Labels, outs)
	res.CutEdges = len(stitchedIDs) + len(candIDs)
	res.StitchedCut = len(stitchedIDs)
	s := &selection{g: g, kept: keptIDs}

	if float64(len(candIDs)) > cutFilterFraction*float64(len(keptIDs)) {
		// Global embedding pass(es): estimate the extreme generalized
		// eigenvalues of (L_G, L_P) on the stitched graph, and while the σ²
		// target is unmet, recover the cut edges whose normalized Joule
		// heat beats the similarity-aware threshold (eq. 15).
		if res.RecoveredCut, err = res.refilter(ctx, "refilter", s, candIDs, opt.Sparsify, opt.Sparsify.Seed^0x5717c4); err != nil {
			if ctx.Err() == nil {
				err = fmt.Errorf("engine: global %w", err)
			}
			return nil, err
		}
		return s, nil
	}
	// Small cut: keep it whole. The bound is the worst shard's achieved σ²
	// (see cutFilterFraction).
	s.kept = append(s.kept, candIDs...)
	if s.p, err = g.SubgraphEdges(s.kept); err != nil {
		return nil, fmt.Errorf("engine: stitched graph: %w", err)
	}
	res.RecoveredCut = len(candIDs)
	s.lmax, s.lmin = 1.0, 1
	for _, sh := range res.Shards {
		s.lmax = max(s.lmax, sh.SigmaSqAchieved)
	}
	return s, nil
}
