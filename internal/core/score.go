package core

import (
	"sync"

	"graphspar/internal/cholesky"
	"graphspar/internal/graph"
	"graphspar/internal/tree"
	"graphspar/internal/vecmath"
)

// DeriveSeed deterministically derives the i-th child seed from a master
// seed (golden-ratio stride; NewRNG's splitmix64 expansion decorrelates
// the streams; child 0 keeps the master seed itself). The embedding's
// probe vectors and the engine's per-shard seeds both derive through
// this one helper.
func DeriveSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)*0x9e3779b97f4a7c15
}

// sessionSolver returns a view of s that can run concurrently with it, or
// nil when s has no concurrency-safe session. Tree solvers write only to
// caller buffers and are shared outright; Cholesky solvers share their
// factorization through per-session scratch buffers. Any other Solver
// (eig.PCGSolver keeps per-call state inside its preconditioner) embeds
// on one goroutine.
func sessionSolver(s Solver) Solver {
	switch v := s.(type) {
	case *tree.Tree:
		return v
	case *cholesky.LapSolver:
		return v.Session()
	default:
		return nil
	}
}

// startProbe fills h with probe vector j's start: a deflated Rademacher
// vector drawn from its own seed, so a probe never depends on which
// goroutine ran it or on how many there were.
func startProbe(h []float64, seed uint64, j int) {
	vecmath.NewRNG(DeriveSeed(seed, j)).FillRademacher(h)
	vecmath.Deflate(h)
}

// powerSteps advances probe vector h by `steps` generalized power
// iterations h ← L_P⁺ L_G h, deflating after each. y is length-n scratch.
func powerSteps(g *graph.Graph, solver Solver, h, y []float64, steps int) {
	for step := 0; step < steps; step++ {
		g.LapMulVec(y, h)  // y = L_G h
		solver.Solve(h, y) // h = L_P⁺ y
		vecmath.Deflate(h)
	}
}

// EdgeScorer is the embedding of §3.2: the r probe vectors h_t,j produced
// by t-step generalized power iterations from Rademacher starts, and the
// per-edge Joule heats read off them. It is the only code that starts and
// advances probe vectors. A filter round builds one, scores its
// candidates in bulk and drops it; the dynamic maintainer keeps one alive
// across edge updates, scoring new candidates against the thresholds of
// the last full filter pass and refreshing the vectors with warm-started
// power steps after a perturbation instead of re-embedding from scratch.
type EdgeScorer struct {
	// T and R echo the embedding depth and probe count the scorer was
	// built with.
	T, R int
	// Probes are the final iterates h_t,j, one zero-mean vector of length
	// n per probe.
	Probes [][]float64
}

// NewEdgeScorer runs r independent t-step generalized power iterations
// against graph g and the L_P⁺ applier solver, spread over up to
// `workers` goroutines, and keeps the resulting probe vectors. Probe j
// starts from its own seed (startProbe) and is written by exactly one
// goroutine, so the vectors — and every heat scored from them — are
// bit-identical for every worker count.
func NewEdgeScorer(g *graph.Graph, solver Solver, t, r int, seed uint64, workers int) *EdgeScorer {
	s := &EdgeScorer{T: t, R: r, Probes: make([][]float64, r)}
	s.advance(g, solver, t, workers, func(j int) {
		s.Probes[j] = make([]float64, g.N())
		startProbe(s.Probes[j], seed, j)
	})
	return s
}

// advance is the one embedding loop: every probe, after start(j) when
// start is non-nil, moves `steps` power iterations forward. The probes
// are dealt round-robin to min(workers, R) goroutines, each solving
// through its own session of solver; a solver without a concurrency-safe
// session (see sessionSolver) runs them all on one.
func (s *EdgeScorer) advance(g *graph.Graph, solver Solver, steps, workers int, start func(j int)) {
	solvers := []Solver{solver}
	for len(solvers) < min(workers, s.R) {
		sv := sessionSolver(solver)
		if sv == nil {
			break
		}
		solvers = append(solvers, sv)
	}
	var wg sync.WaitGroup
	for w, sv := range solvers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := make([]float64, g.N())
			for j := w; j < s.R; j += len(solvers) {
				if start != nil {
					start(j)
				}
				powerSteps(g, sv, s.Probes[j], y, steps)
			}
		}()
	}
	wg.Wait()
}

// Heat returns the Joule heat of one edge under the stored embedding:
// Σ_j w·(h_j(u) − h_j(v))² (eq. 6 summed per eq. 12), summed in probe
// order.
func (s *EdgeScorer) Heat(e graph.Edge) float64 {
	var heat float64
	for _, h := range s.Probes {
		d := h[e.U] - h[e.V]
		heat += e.W * d * d
	}
	return heat
}

// Score computes the heats of the listed edge ids of g plus their
// maximum. The returned slice is parallel to offIDs.
func (s *EdgeScorer) Score(g *graph.Graph, offIDs []int) ([]float64, float64) {
	heats := make([]float64, len(offIDs))
	var maxHeat float64
	for i, id := range offIDs {
		heats[i] = s.Heat(g.Edge(id))
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
func (s *EdgeScorer) Step(g *graph.Graph, solver Solver, workers int) {
	s.advance(g, solver, 1, workers, nil)
}
