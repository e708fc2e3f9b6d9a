package multilevel

import (
	"fmt"

	"graphspar/internal/graph"
	"graphspar/internal/multigrid"
)

// Level is one rung of the coarsening hierarchy. Level 0's G is the
// input graph.
type Level struct {
	G *graph.Graph
	// Rep maps each edge id of the next coarser graph to the heaviest
	// fine edge of G it aggregates (smallest id on weight ties) — the
	// representative a coarse admission is interpolated back through.
	// Nil at the coarsest level.
	Rep []int
}

// BuildHierarchy coarsens g by repeated heavy-edge aggregation until the
// maxLevels cap, the coarsest-size floor, or a stalled aggregation (a step
// that cannot shrink the vertex count below coarsenRatio·n) stops it. The
// returned stack always has the input at index 0 and is never empty; an
// input at or below coarsestSize yields exactly that degenerate stack.
func BuildHierarchy(g *graph.Graph, coarsestSize int) ([]*Level, error) {
	levels := []*Level{{G: g}}
	for len(levels) < maxLevels {
		cur := levels[len(levels)-1]
		n := cur.G.N()
		if n <= coarsestSize {
			break
		}
		agg, nc := multigrid.AggregateGraph(cur.G)
		if nc < 2 || float64(nc) > coarsenRatio*float64(n) {
			break
		}
		coarse, rep, err := contract(cur.G, agg, nc)
		if err != nil {
			return nil, err
		}
		cur.Rep = rep
		levels = append(levels, &Level{G: coarse})
	}
	return levels, nil
}

// contract builds the coarse graph induced by the aggregate mapping:
// inter-aggregate fine edges collapse onto coarse edges with summed
// weights (intra-aggregate edges vanish — they become refilter
// candidates when the selection is interpolated back). The second return
// is the representative mapping for interpolation.
func contract(fine *graph.Graph, agg []int, nc int) (*graph.Graph, []int, error) {
	es := make([]graph.Edge, 0, fine.M())
	for _, e := range fine.Edges() {
		cu, cv := agg[e.U], agg[e.V]
		if cu != cv {
			es = append(es, graph.Edge{U: cu, V: cv, W: e.W})
		}
	}
	coarse, err := graph.New(nc, es)
	if err != nil {
		return nil, nil, fmt.Errorf("multilevel: contract: %w", err)
	}
	rep := make([]int, coarse.M())
	best := make([]float64, coarse.M())
	for i := range rep {
		rep[i] = -1
	}
	for id, e := range fine.Edges() {
		cu, cv := agg[e.U], agg[e.V]
		if cu == cv {
			continue
		}
		cid, ok := graph.FindEdge(coarse, cu, cv)
		if !ok {
			return nil, nil, fmt.Errorf("multilevel: contract: fine edge %d lost its coarse image", id)
		}
		if rep[cid] == -1 || e.W > best[cid] {
			rep[cid], best[cid] = id, e.W
		}
	}
	return coarse, rep, nil
}
