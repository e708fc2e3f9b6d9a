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
// Sparsifier. The wire's plan is explicit: Canon spells single-shot as
// "", never the facade's auto policy.
func facadeFor(p service.SparsifyParams) (*graphspar.Sparsifier, error) {
	mode := graphspar.ModeSingleShot
	if p.Mode != "" {
		var err error
		if mode, err = graphspar.ParseMode(p.Mode); err != nil {
			return nil, err
		}
	}
	return graphspar.New(
		graphspar.WithSigma2(p.SigmaSq),
		graphspar.WithSeed(p.Seed),
		graphspar.WithWorkers(p.Workers), // every plan's one worker count
		graphspar.WithMode(mode),
	)
}

// Sparsify is the production SparsifyFunc: facade Run under the plan the
// params name, certificate included.
func Sparsify(ctx context.Context, g *graph.Graph, p service.SparsifyParams) (*service.JobResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := facadeFor(p)
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
		Reduction:         float64(max(g.M(), 1)) / float64(max(res.Sparsifier.M(), 1)), // 1 on a one-vertex graph
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
// *graphspar.Stream is an alias of *dynamic.Maintainer, so the service's
// session manager drives the exact object a library user would hold, and
// the stream's independently verified κ is the certificate an
// incremental job reports.
func Maintain(ctx context.Context, g *graph.Graph, p service.SparsifyParams) (sessions.Maintainer, error) {
	s, err := facadeFor(p)
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
