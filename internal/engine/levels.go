package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

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
// It returns the input's selection; Run certifies it when no level did.
func (res *Result) runLevels(ctx context.Context, g *graph.Graph, opt Options) (*selection, error) {
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
	s := &selection{
		g: coarsest, p: sp.Sparsifier, solver: sp.Solver, lmax: sp.LambdaMax, lmin: sp.LambdaMin,
		kept: append(append([]int(nil), sp.TreeEdgeIDs...), sp.OffTreeAddedIDs...),
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
		keptF, candF, treeCount, err := multilevel.Interpolate(fine.G, fine.Rep, s.kept)
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
		s = &selection{g: fine.G, kept: keptF}
		if st.Recovered, err = res.refilter(ctx, "uncoarsen_refilter", s, candF, opt.Sparsify, levelSeed); err != nil {
			return nil, wrap(err)
		}
		if opt.Verify {
			recovered, err := res.certify(ctx, "uncoarsen_refilter", s, opt, levelSeed)
			if err != nil {
				return nil, wrap(err)
			}
			st.Recovered += recovered
			st.VerifiedCond = res.VerifiedCond
		}
		st.Kept, st.SigmaSqEst = s.p.M(), s.est()
		st.Duration = time.Since(lvlStart)
		res.Levels[l] = st
	}
	return s, nil
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
