// Sharded: sparsify a large mesh shard-parallel through the graphspar
// facade and compare the phases against what a single-shot run would
// cost — the quickstart for scaling sparsification with cores.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"graphspar"
)

func main() {
	// A mesh-like workload: sharding shines on graphs with small balanced
	// cuts (grids, meshes, circuits). See the README for when it hurts.
	g, err := graphspar.LoadGraph("grid:192x192:uniform", 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.N(), g.M())

	// Single-shot reference: ModeSingleShot pins the plain pipeline.
	single, err := graphspar.New(
		graphspar.WithSigma2(100), graphspar.WithSeed(7), graphspar.WithMode(graphspar.ModeSingleShot))
	if err != nil {
		log.Fatal(err)
	}
	sres, err := single.Run(context.Background(), g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single-shot: %d edges, verified κ=%.1f in %s\n",
		sres.Sparsifier.M(), sres.VerifiedCond, sres.Timings.Wall.Round(time.Millisecond))

	// Shard-parallel: AutoShards-way partition, concurrent shard
	// sparsification, stitch + cut recovery, independent verification.
	sharded, err := graphspar.New(
		graphspar.WithSigma2(100), graphspar.WithSeed(7), graphspar.WithMode(graphspar.ModeSharded))
	if err != nil {
		log.Fatal(err)
	}
	res, err := sharded.Run(context.Background(), g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sharded:     %d edges, verified κ=%.1f in %s\n",
		res.Sparsifier.M(), res.VerifiedCond, res.Timings.Wall.Round(time.Millisecond))
	fmt.Printf("  partition %s | shards %s wall (%s cpu, %.2fx parallel) | stitch %s | verify %s\n",
		res.Timings.Partition.Round(time.Millisecond),
		res.Timings.Shard.Round(time.Millisecond), res.Timings.ShardCPU.Round(time.Millisecond), res.Speedup(),
		res.Timings.Stitch.Round(time.Millisecond), res.Timings.Verify.Round(time.Millisecond))
	fmt.Printf("  cut: %d edges crossed the partition, %d stitched for connectivity, %d recovered\n",
		res.CutEdges, res.StitchedCut, res.RecoveredCut)
	for _, s := range res.Shards {
		fmt.Printf("  shard %d: %d/%d edges kept, σ²=%.1f, %d rounds, %s\n",
			s.Shard, s.Kept, s.Edges, s.SigmaSqAchieved, len(s.Rounds), s.Duration.Round(time.Millisecond))
	}
	compute := res.Timings.Wall - res.Timings.Verify
	fmt.Printf("speedup vs single-shot (excluding verification): %.2fx\n",
		float64(sres.Timings.Sparsify)/float64(compute))
}
