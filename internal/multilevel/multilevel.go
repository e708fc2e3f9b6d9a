// Package multilevel is the candidate producer of the batch pipeline's
// multilevel plan — the multilevel scheme of John & Safro
// (arXiv 1601.05527) built on this repository's edge-filter core. It
// builds the coarsening hierarchy (the input is contracted level by level
// along the heavy-edge aggregates of multigrid.AggregateGraph) and
// interpolates a coarse edge selection one level down:
// each fine level keeps its own max-weight backbone plus the representative
// fine edge of every admitted coarse edge, and every other fine edge
// becomes a re-filter candidate. internal/engine drives the hierarchy:
// it runs the edge filter on the coarsest graph, then re-filters and
// re-certifies each interpolated level, so the final certificate is on
// the original graph.
package multilevel

import (
	"fmt"

	"graphspar/internal/graph"
	"graphspar/internal/lsst"
)

// Defaults of the hierarchy knobs.
const (
	// DefaultCoarsenRatio is the acceptance ceiling on nc/n per
	// coarsening step: a step that cannot shrink the vertex count below
	// this fraction has stalled and ends the hierarchy.
	DefaultCoarsenRatio = 0.7
	// DefaultCoarsestSize stops coarsening once a level has at most this
	// many vertices — small enough that the full densification loop is
	// cheap, large enough to keep the interpolation seed informative.
	DefaultCoarsestSize = 512
)

// Interpolate seeds a fine level's selection: the fine max-weight
// backbone for connectivity plus the representative fine edge of every
// admitted coarse edge; every other fine edge becomes a re-filter
// candidate.
func Interpolate(fine *graph.Graph, rep []int, coarseKept []int) (keptIDs, candIDs []int, treeCount int, err error) {
	treeIDs, err := lsst.MaxWeightSpanningTree(fine)
	if err != nil {
		return nil, nil, 0, err
	}
	in := make([]bool, fine.M())
	for _, id := range treeIDs {
		in[id] = true
	}
	keptIDs = append([]int(nil), treeIDs...)
	treeCount = len(treeIDs)
	for _, cid := range coarseKept {
		if cid < 0 || cid >= len(rep) {
			return nil, nil, 0, fmt.Errorf("interpolate: coarse edge %d out of range", cid)
		}
		if id := rep[cid]; id >= 0 && !in[id] {
			in[id] = true
			keptIDs = append(keptIDs, id)
		}
	}
	for id := 0; id < fine.M(); id++ {
		if !in[id] {
			candIDs = append(candIDs, id)
		}
	}
	return keptIDs, candIDs, treeCount, nil
}
