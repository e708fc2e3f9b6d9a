// Package runners binds the service's transport/scheduling layer to the
// public graphspar facade: the queue's SparsifyFunc and the session
// layer's MaintainFunc are the only places job parameters become
// sparsification options. internal/service cannot import the root
// package (the facade sits on top of the internal pipelines), so the
// wiring lives here, shared by cmd/serve and cmd/loadgen's self-serve
// mode.
package runners

import (
	"context"
	"errors"

	"graphspar"
	"graphspar/internal/graph"
	"graphspar/internal/service"
	"graphspar/internal/sessions"
)

// facadeFor translates canonicalized wire params into a facade
// Sparsifier. withVerification adds the independent certificate check
// from-scratch jobs report; incremental jobs skip it because the
// maintainer's own per-batch verification IS the certificate.
func facadeFor(p service.SparsifyParams, withVerification bool) (*graphspar.Sparsifier, error) {
	alg, err := graphspar.ParseTreeAlgorithm(p.TreeAlg)
	if err != nil {
		return nil, err
	}
	opts := []graphspar.Option{
		graphspar.WithSigma2(p.SigmaSq),
		graphspar.WithEmbedSteps(p.T),
		graphspar.WithProbeVectors(p.NumVectors),
		graphspar.WithTreeAlgorithm(alg),
		graphspar.WithSeed(p.Seed),
		graphspar.WithWorkers(p.Workers), // every plan's one worker count
	}
	if withVerification {
		opts = append(opts, graphspar.WithVerification(0))
	}
	if p.MaxEdges > 0 {
		opts = append(opts, graphspar.WithMaxEdges(p.MaxEdges))
	}
	switch {
	case p.Mode == graphspar.ModeMultilevel.String():
		// Canon left "multilevel" as the only surviving mode string and
		// already zeroed Shards; the coarsen knobs ride along (0 keeps the
		// library defaults).
		opts = append(opts, graphspar.WithMode(graphspar.ModeMultilevel))
		if p.CoarsenLevels > 0 {
			opts = append(opts, graphspar.WithCoarsenLevels(p.CoarsenLevels))
		}
		if p.CoarsenRatio > 0 {
			opts = append(opts, graphspar.WithCoarsenRatio(p.CoarsenRatio))
		}
	case p.Shards > 1:
		opts = append(opts, graphspar.WithShards(p.Shards))
	default:
		// The wire contract is explicit: shards ≤ 1 is the single-shot
		// pipeline, never the facade's auto-sharding policy.
		opts = append(opts, graphspar.WithShards(1))
	}
	return graphspar.New(opts...)
}

// Sparsify is the production SparsifyFunc: facade Run (under the plan the
// params name) plus the independent Lanczos verification.
func Sparsify(ctx context.Context, g *graph.Graph, p service.SparsifyParams) (*service.JobResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := facadeFor(p, true)
	if err != nil {
		return nil, err
	}
	res, err := s.Run(ctx, g)
	if err != nil && !errors.Is(err, graphspar.ErrNoTarget) {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	out := &service.JobResult{
		EdgesKept:         res.Sparsifier.M(),
		EdgesInput:        g.M(),
		Density:           res.Density(),
		Reduction:         float64(g.M()) / float64(res.Sparsifier.M()),
		SigmaSqAchieved:   res.SigmaSqAchieved,
		TargetMet:         res.TargetMet,
		Connected:         res.Sparsifier.IsConnected(),
		VerifiedLambdaMax: res.VerifiedLambdaMax,
		VerifiedLambdaMin: res.VerifiedLambdaMin,
		VerifiedCond:      res.VerifiedCond,
		TotalStretch:      res.TotalStretch,
		CutEdges:          res.CutEdges,
		RecoveredCut:      res.RecoveredCut,
		Multilevel:        res.Multilevel,
		CoarsenDepth:      res.CoarsenDepth,
		Sparsifier:        res.Sparsifier,
	}
	// Every plan fills the same Result; fields a plan does not produce are
	// zero (and omitted on the wire).
	out.Rounds = len(res.Rounds)
	for _, sh := range res.Shards {
		out.Rounds += len(sh.Rounds)
	}
	for _, lv := range res.Levels {
		out.LevelRecovered += lv.Recovered
	}
	if res.Sharded {
		out.Shards = res.Parts // the other plans report Parts = 1; the wire keeps shards for sharded jobs
		out.ShardSpeedup = res.Speedup()
	}
	return out, nil
}

// Maintain is the production MaintainFunc: it builds a live facade
// Stream from scratch — the one way a session comes to exist, whether a
// stream request or an incremental job found none resident. The returned
// *graphspar.Stream satisfies sessions.Maintainer (its methods alias the
// internal types), so the service's session manager drives the exact
// object a library user would hold, and the stream's independently
// verified κ is the certificate an incremental job reports.
func Maintain(ctx context.Context, g *graph.Graph, p service.SparsifyParams) (sessions.Maintainer, error) {
	s, err := facadeFor(p, false)
	if err != nil {
		return nil, err
	}
	return s.Maintain(ctx, g)
}

// Config returns a service.Config with both runner funcs wired in.
// Callers fill in queue/cache/session sizing on the returned value.
func Config() service.Config {
	return service.Config{
		Sparsify: Sparsify,
		Maintain: Maintain,
	}
}
