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

	// StepLocal scratch, reused across calls so a local refresh costs
	// O(ball volume), not O(n).
	mark  []int // mark[v] == stamp: v is in the current ball
	pos   []int // ball position of v, valid where mark[v] == stamp
	stamp int
	ball  []int
	rhs   []float64
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

// StepLocal is the ball-local form of Step: after a batch whose support is
// the touched vertices, the residual of the power iteration h ← L_P⁺ L_G h
// differs from its converged value only near the perturbation, so the step
// is solved as a Dirichlet problem — L_P h′ = L_G h restricted to the
// radius-hop ball around touched in g's adjacency, with h frozen on the
// boundary — by a fixed number of Gauss–Seidel sweeps in BFS order. Cost is
// O(r · sweeps · vol(ball)) instead of O(r · (m + fill)): flat in graph
// size for bounded-degree graphs and batch sizes.
//
// No deflation is applied: heats consume only probe differences
// h(u) − h(v), which are invariant under the constant shifts deflation
// removes, and the fixed boundary pins the component mean.
//
// If the ball would exceed maxBall vertices (maxBall <= 0: no cap),
// StepLocal refuses, leaves every probe untouched and returns -1 so the
// caller can fall back to a full Step. Otherwise it returns the number of
// ball vertices refreshed.
func (s *EdgeScorer) StepLocal(g, p *graph.Graph, touched []int, radius, sweeps, maxBall int) int {
	n := g.N()
	if len(s.mark) != n {
		s.mark = make([]int, n)
		s.pos = make([]int, n)
		s.stamp = 0
	}
	s.stamp++
	stamp := s.stamp
	ball := s.ball[:0]
	for _, v := range touched {
		if v >= 0 && v < n && s.mark[v] != stamp {
			s.mark[v] = stamp
			ball = append(ball, v)
		}
	}
	frontier := len(ball)
	for hop := 0; hop < radius; hop++ {
		start := len(ball) - frontier
		for _, u := range ball[start:] {
			g.Neighbors(u, func(v int, _ float64, _ int) bool {
				if s.mark[v] != stamp {
					s.mark[v] = stamp
					ball = append(ball, v)
				}
				return true
			})
		}
		frontier = len(ball) - start - frontier
		if maxBall > 0 && len(ball) > maxBall {
			s.ball = ball
			return -1
		}
	}
	s.ball = ball
	if len(ball) == 0 {
		return 0
	}
	for i, v := range ball {
		s.pos[v] = i
	}
	if cap(s.rhs) < len(ball) {
		s.rhs = make([]float64, len(ball))
	}
	b := s.rhs[:len(ball)]
	for _, h := range s.Probes {
		// b = (L_G h)|ball, from the pre-step iterate.
		for i, u := range ball {
			var acc float64
			g.Neighbors(u, func(v int, w float64, _ int) bool {
				acc += w * (h[u] - h[v])
				return true
			})
			b[i] = acc
		}
		// Gauss–Seidel on L_P h′ = b inside the ball, h′ = h outside.
		for sweep := 0; sweep < sweeps; sweep++ {
			for i, u := range ball {
				var num, deg float64
				p.Neighbors(u, func(v int, w float64, _ int) bool {
					num += w * h[v]
					deg += w
					return true
				})
				if deg > 0 {
					h[u] = (b[i] + num) / deg
				}
			}
		}
	}
	return len(ball)
}
