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
// sequentially.
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
// vector drawn from its own seed. Sequential and parallel embedding and
// the EdgeScorer all start every probe through this, which is what makes
// their outputs bit-identical.
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

// probeHeats runs one t-step generalized power iteration from probe j's
// start and writes the per-edge heat contribution of that single probe
// into out. h and y are caller-owned length-n scratch buffers.
func probeHeats(g *graph.Graph, solver Solver, offIDs []int, t int, seed uint64, j int, h, y, out []float64) {
	startProbe(h, seed, j)
	powerSteps(g, solver, h, y, t)
	for i, id := range offIDs {
		e := g.Edge(id)
		d := h[e.U] - h[e.V]
		out[i] = e.W * d * d
	}
}

// EmbedOffTreeParallel computes the same heats as EmbedOffTree with the r
// independent probe-vector solves spread over up to `workers` goroutines.
// Every vector gets a deterministic seed (startProbe) and the per-vector
// contributions are reduced in vector order, so the result is
// bit-identical to the sequential path for every worker count. Solvers
// without a concurrency-safe session (see sessionSolver) fall back to one
// worker; the output is still identical.
func EmbedOffTreeParallel(g *graph.Graph, solver Solver, offIDs []int, t, r int, seed uint64, workers int) ([]float64, float64) {
	return embedOffTree(g, solver, offIDs, t, r, seed, workers, nil)
}

// embedOffTree is the embedding behind EmbedOffTree(Parallel), with the
// scratch vectors (h, y, per-probe contributions) drawn from ws. The
// returned heats slice is always freshly allocated — it escapes to the
// caller and is never pooled. Pooled buffers are fully overwritten by
// probeHeats before being read, so the result stays bit-identical to the
// un-pooled path for every worker count.
func embedOffTree(g *graph.Graph, solver Solver, offIDs []int, t, r int, seed uint64, workers int, ws *Workspace) ([]float64, float64) {
	n := g.N()
	if workers > r {
		workers = r
	}
	if workers < 1 {
		workers = 1
	}
	solvers := []Solver{solver}
	for len(solvers) < workers {
		s := sessionSolver(solver)
		if s == nil {
			solvers = solvers[:1]
			break
		}
		solvers = append(solvers, s)
	}
	workers = len(solvers)

	heats := make([]float64, len(offIDs))
	if workers == 1 {
		// Accumulate each probe in place, in vector order — O(|offIDs|)
		// memory, and the same summation order as the parallel reduction
		// below, so the two paths stay bit-identical.
		h := ws.vec(n)
		y := ws.vec(n)
		out := ws.vec(len(offIDs))
		for j := 0; j < r; j++ {
			probeHeats(g, solver, offIDs, t, seed, j, h, y, out)
			for i, v := range out {
				heats[i] += v
			}
		}
		ws.putVec(h)
		ws.putVec(y)
		ws.putVec(out)
	} else {
		contrib := make([][]float64, r)
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(sv Solver) {
				defer wg.Done()
				h := ws.vec(n)
				y := ws.vec(n)
				for j := range jobs {
					out := ws.vec(len(offIDs))
					probeHeats(g, sv, offIDs, t, seed, j, h, y, out)
					contrib[j] = out
				}
				ws.putVec(h)
				ws.putVec(y)
			}(solvers[w])
		}
		for j := 0; j < r; j++ {
			jobs <- j
		}
		close(jobs)
		wg.Wait()
		// Fixed-order reduction: summation order must not depend on
		// worker scheduling or float rounding would break run-to-run
		// determinism. Slices are returned to the workspace as they are
		// folded in.
		for j := 0; j < r; j++ {
			for i, v := range contrib[j] {
				heats[i] += v
			}
			ws.putVec(contrib[j])
			contrib[j] = nil
		}
	}
	var maxHeat float64
	for _, v := range heats {
		if v > maxHeat {
			maxHeat = v
		}
	}
	return heats, maxHeat
}
