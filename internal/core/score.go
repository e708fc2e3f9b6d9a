package core

import "graphspar/internal/graph"

// EdgeScorer is the exported per-edge score path of the embedding (§3.2):
// it retains the r probe vectors h_t,j produced by t-step generalized
// power iterations so that individual edges can be (re-)scored long after
// the embedding ran. Sparsify uses the heats in bulk and discards the
// vectors; the dynamic maintainer keeps an EdgeScorer alive across edge
// updates, scoring new candidates against the thresholds of the last full
// filter pass and refreshing the vectors with warm-started power steps
// after a perturbation instead of re-embedding from scratch.
//
// A scorer built with the same (t, r, seed) as EmbedOffTree produces
// bit-identical heats: both seed probe j through the same derivation and
// accumulate per-probe contributions in probe order.
type EdgeScorer struct {
	// T and R echo the embedding depth and probe count the scorer was
	// built with.
	T, R int
	// Probes are the final iterates h_t,j, one zero-mean vector of length
	// n per probe.
	Probes [][]float64
}

// NewEdgeScorer runs the embedding iteration of EmbedOffTree — r
// independent t-step generalized power iterations from Rademacher starts —
// against graph g and the L_P⁺ applier solver, and keeps the resulting
// probe vectors.
func NewEdgeScorer(g *graph.Graph, solver Solver, t, r int, seed uint64) *EdgeScorer {
	n := g.N()
	s := &EdgeScorer{T: t, R: r, Probes: make([][]float64, r)}
	y := make([]float64, n)
	for j := 0; j < r; j++ {
		h := make([]float64, n)
		startProbe(h, seed, j)
		powerSteps(g, solver, h, y, t)
		s.Probes[j] = h
	}
	return s
}

// Heat returns the Joule heat of one edge under the stored embedding:
// Σ_j w·(h_j(u) − h_j(v))² (eq. 6 summed per eq. 12).
func (s *EdgeScorer) Heat(e graph.Edge) float64 {
	var heat float64
	for _, h := range s.Probes {
		d := h[e.U] - h[e.V]
		heat += e.W * d * d
	}
	return heat
}

// Score computes the heats of the listed edge ids of g plus the maximum,
// in the same (id-parallel, probe-ordered) form EmbedOffTree returns.
func (s *EdgeScorer) Score(g *graph.Graph, offIDs []int) ([]float64, float64) {
	heats := make([]float64, len(offIDs))
	var maxHeat float64
	for i, id := range offIDs {
		e := g.Edge(id)
		for _, h := range s.Probes {
			d := h[e.U] - h[e.V]
			heats[i] += e.W * d * d
		}
		if heats[i] > maxHeat {
			maxHeat = heats[i]
		}
	}
	return heats, maxHeat
}

// Step advances every probe vector by one warm-started generalized power
// step h ← L_P⁺ L_G h against the *current* graph and solver. After an
// edge perturbation, ΔL_G (and ΔL_P) have support only on the touched
// vertices, so the input residual of this step differs from the converged
// pre-update iteration exactly on the perturbed region; one step folds
// the perturbation back into the embedding at the cost of r solves
// instead of a full r·t re-embedding from fresh random starts. Higher
// powers also sharpen the spectral weighting toward λmax, so heats stay
// comparable against the thresholds of the last full pass.
func (s *EdgeScorer) Step(g *graph.Graph, solver Solver) {
	y := make([]float64, g.N())
	for _, h := range s.Probes {
		powerSteps(g, solver, h, y, 1)
	}
}
