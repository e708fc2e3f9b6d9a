package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/graph"
	"graphspar/internal/multilevel"
	"graphspar/internal/obs"
	"graphspar/internal/params"
)

// runLevels executes the single-shot and multilevel plans, which are one
// plan at different depths: run the edge filter on the coarsest level of
// a hierarchy, then interpolate + re-filter + certify level by level back
// to the input. Single-shot is the one-level hierarchy — the coarsest
// level is the input and there is nothing to uncoarsen — so a multilevel
// run whose coarsening never engaged keeps the same edges bit for bit.
//
// The returned solver is the factorization of res.Sparsifier the last
// filter loop ended on, for Run's certificate to adopt; nil when there is
// none (see Certify) or when level 0's certificate already consumed it.
func (res *Result) runLevels(ctx context.Context, g *graph.Graph, opt Options) (*cholesky.LapSolver, error) {
	sigma := opt.Sparsify.SigmaSq
	multi := opt.Mode == params.ModeMultilevel

	levels := []*multilevel.Level{{G: g}}
	if multi {
		coarsenSpan := obs.StartSpan(ctx, "coarsen")
		var err error
		levels, err = multilevel.BuildHierarchy(g, opt.CoarsenLevels, opt.CoarsenRatio, opt.CoarsestSize)
		res.Timings.Coarsen = coarsenSpan.End()
		if err != nil {
			return nil, err
		}
		res.Depth = len(levels)
		res.Levels = make([]LevelStats, len(levels))
	}

	coarsest := levels[len(levels)-1].G
	spSpan := obs.StartSpan(ctx, "sparsify")
	sp, err := core.SparsifyCtx(ctx, coarsest, opt.Sparsify)
	spDur := spSpan.End()
	if err != nil && !errors.Is(err, core.ErrNoTarget) {
		if multi && ctx.Err() == nil {
			err = fmt.Errorf("engine: coarsest level: %w", err)
		}
		return nil, err
	}
	res.TargetMet = err == nil
	if multi {
		res.Levels[len(levels)-1] = LevelStats{
			Level:      len(levels) - 1,
			Vertices:   coarsest.N(),
			Edges:      coarsest.M(),
			TreeEdges:  len(sp.TreeEdgeIDs),
			Recovered:  len(sp.OffTreeAddedIDs),
			Kept:       sp.Sparsifier.M(),
			SigmaSqEst: sp.SigmaSqAchieved,
			Duration:   spDur,
		}
	} else {
		res.TotalStretch = sp.TotalStretch
		res.TreeEdgeIDs, res.OffTreeAddedIDs, res.Rounds = sp.TreeEdgeIDs, sp.OffTreeAddedIDs, sp.Rounds
	}
	p, solver := sp.Sparsifier, sp.Solver // solver: the factor of p, or nil
	lmax, lmin := sp.LambdaMax, sp.LambdaMin
	var kept []int // the selection to interpolate; a one-level run never reads it
	if len(levels) > 1 {
		kept = append(append(kept, sp.TreeEdgeIDs...), sp.OffTreeAddedIDs...)
	}

	// Uncoarsen: interpolate the selection one level down, re-filter the
	// fine edges, certify, repeat until the input graph.
	for l := len(levels) - 2; l >= 0; l-- {
		fine := levels[l]
		lvlStart := time.Now()
		levelSeed := core.DeriveSeed(opt.Sparsify.Seed, l+1)
		// wrap names the level on errors other than cancellation.
		wrap := func(err error) error {
			if ctx.Err() != nil {
				return err
			}
			return fmt.Errorf("engine: level %d: %w", l, err)
		}

		iSpan := obs.StartSpan(ctx, "interpolate")
		keptF, candF, treeCount, err := multilevel.Interpolate(fine.G, fine.Rep, kept, opt.Sparsify.TreeAlg, levelSeed)
		res.Timings.Interpolate += iSpan.End()
		if err != nil {
			return nil, wrap(err)
		}
		st := LevelStats{
			Level:     l,
			Vertices:  fine.G.N(),
			Edges:     fine.G.M(),
			TreeEdges: treeCount,
			Inherited: len(keptF) - treeCount,
		}

		refilter := func(keptIDs, candIDs []int, ropt core.Options, seed uint64) (float64, float64, error) {
			rSpan := obs.StartSpan(ctx, "uncoarsen_refilter")
			pF, keptNew, recovered, lx, ln, solverF, err := core.RefilterFactored(ctx, fine.G, keptIDs, candIDs, ropt, core.RefilterRounds, opt.Workers, seed)
			res.Timings.Refilter += rSpan.End()
			if err != nil {
				return 0, 0, wrap(err)
			}
			p, kept, solver = pF, keptNew, solverF
			st.Recovered += recovered
			return lx, ln, nil
		}
		if lmax, lmin, err = refilter(keptF, candF, opt.Sparsify, levelSeed); err != nil {
			return nil, err
		}
		res.TargetMet = lmin > 0 && lmax/lmin <= sigma

		if opt.Verify {
			verify := func(seed uint64) (Certificate, error) {
				c, err := Certify(ctx, fine.G, p, solver, opt.VerifySteps, seed)
				solver = nil // spent on this certificate; every retry re-filters first
				res.Timings.Verify += c.dur
				if err != nil {
					return c, wrap(err)
				}
				return c, nil
			}
			c, err := verify(levelSeed)
			if err != nil {
				return nil, err
			}
			// Calibrated retries: the power/coloring estimates can clear σ²
			// while the Lanczos check does not (the estimate under-reports
			// κ by cond·lmin/lmax). Re-run the bounded re-filter against a
			// proportionally tighter estimated target so it actually admits
			// edges, then re-certify — the verified certificate is the one
			// each level converges on. The retry count is capped, so the
			// per-level cost stays bounded.
			for attempt := 1; c.Cond > sigma && len(kept) < fine.G.M() && lmin > 0 && attempt <= maxCalibrations; attempt++ {
				copt := opt.Sparsify
				copt.SigmaSq = sigma * (lmax / lmin) / c.Cond
				if !(copt.SigmaSq > 1) {
					copt.SigmaSq = (1 + sigma) / 2
				}
				if lmax, lmin, err = refilter(kept, remaining(fine.G.M(), kept), copt, core.DeriveSeed(levelSeed, 2*attempt-1)); err != nil {
					return nil, err
				}
				if c, err = verify(core.DeriveSeed(levelSeed, 2*attempt)); err != nil {
					return nil, err
				}
			}
			st.VerifiedCond = c.Cond
			if l == 0 {
				res.setCertificate(c)
			}
		}
		st.Kept = p.M()
		if lmin > 0 {
			st.SigmaSqEst = lmax / lmin
		}
		st.Duration = time.Since(lvlStart)
		res.Levels[l] = st
	}

	res.Sparsifier = p
	res.LambdaMax, res.LambdaMin = lmax, lmin
	if lmin > 0 {
		res.SigmaSqEst = lmax / lmin
	}
	return solver, nil
}

// remaining lists the edge ids of a graph with m edges not in kept.
func remaining(m int, kept []int) []int {
	in := make([]bool, m)
	for _, id := range kept {
		in[id] = true
	}
	out := make([]int, 0, m-len(kept))
	for id := 0; id < m; id++ {
		if !in[id] {
			out = append(out, id)
		}
	}
	return out
}
