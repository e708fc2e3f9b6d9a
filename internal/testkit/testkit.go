// Package testkit is the property-test harness shared by the dynamic
// maintainer's randomized suites, and the home of the dense oracle.
//
// The harness is a standard set of graph families (regular mesh,
// community-structured, bridge-heavy), a deterministic random
// update-stream generator that tracks the evolving edge set, and
// AssertInvariant, which checks after every applied batch that the
// sparsifier is a connected, weight-faithful subgraph whose condition
// number, as VerifyCond measures it, stays within the σ² target.
// VerifyCond is not independent of the code under test: it runs the
// product certificate, core.VerifySimilarity, on a fresh factorization
// of P, so it shares the certificate's Lanczos loop and its blind spots.
//
// The independent referee is ExactCond: κ(L_G, L_P) from a dense
// Cholesky reduction and a Householder–QL eigensolve, for n ≤
// fixture.MaxN. The shared low-level fixtures it builds on live in
// internal/testkit/fixture, which the tests of packages below core can
// import.
package testkit

import (
	"fmt"
	"testing"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/dynamic"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/vecmath"
)

// Case is one graph family instance for property suites.
type Case struct {
	Name  string
	Build func(seed uint64) (*graph.Graph, error)
}

// Cases returns the three families the dynamic suites run over: a 2D
// grid (mesh-like, the paper's main regime), an SBM community graph
// (dense blocks, sparse cuts) and a barbell (every path edge a bridge,
// stressing connectivity handling).
func Cases() []Case {
	return []Case{
		{"grid", func(seed uint64) (*graph.Graph, error) {
			return gen.Grid2D(12, 12, gen.UniformWeights, seed)
		}},
		{"sbm", func(seed uint64) (*graph.Graph, error) {
			g, _, err := gen.SBM(4, 30, 0.25, 0.02, seed)
			return g, err
		}},
		{"barbell", func(seed uint64) (*graph.Graph, error) {
			return gen.Barbell(10, 6, gen.UniformWeights, seed)
		}},
	}
}

// RandomBatch derives one update batch from the *current* graph: a mix of
// inserts (random non-edges), deletes and reweights (random existing
// edges), each edge touched at most once. Deletes may hit bridges — the
// maintainer is expected to reject those batches with ErrWouldDisconnect,
// so streams exercise both the accept and reject paths. Deterministic for
// a given RNG state.
func RandomBatch(g *graph.Graph, rng *vecmath.RNG, size int) []dynamic.Update {
	n := g.N()
	used := make(map[[2]int]bool, size)
	batch := make([]dynamic.Update, 0, size)
	pick := func() (int, int, bool) {
		for tries := 0; tries < 32; tries++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if used[[2]int{u, v}] {
				continue
			}
			return u, v, true
		}
		return 0, 0, false
	}
	for len(batch) < size {
		switch r := rng.Float64(); {
		case r < 0.4: // insert a non-edge
			u, v, ok := pick()
			if !ok {
				return batch
			}
			if g.HasEdge(u, v) {
				continue
			}
			used[[2]int{u, v}] = true
			batch = append(batch, dynamic.Insert(u, v, 0.25+1.5*rng.Float64()))
		case r < 0.7: // reweight an existing edge
			e := g.Edge(rng.Intn(g.M()))
			if used[[2]int{e.U, e.V}] {
				continue
			}
			used[[2]int{e.U, e.V}] = true
			batch = append(batch, dynamic.Reweight(e.U, e.V, e.W*(0.5+rng.Float64())))
		default: // delete an existing edge (possibly a bridge)
			e := g.Edge(rng.Intn(g.M()))
			if used[[2]int{e.U, e.V}] {
				continue
			}
			used[[2]int{e.U, e.V}] = true
			batch = append(batch, dynamic.Delete(e.U, e.V))
		}
	}
	return batch
}

// VerifyCond measures κ(L_G, L_P) with core.VerifySimilarity — the
// certificate under test — on a fresh exact factorization of p, 40 steps
// (or n). It re-runs the product's estimate from a new factor and seed;
// it is not an independent referee (ExactCond is).
func VerifyCond(g, p *graph.Graph, seed uint64) (float64, error) {
	solver, err := cholesky.NewLapSolver(p)
	if err != nil {
		return 0, err
	}
	k := 40
	if g.N() < k {
		k = g.N()
	}
	_, _, cond, err := core.VerifySimilarity(g, p, solver, k, seed)
	return cond, err
}

// AssertInvariant fails the test unless the maintained sparsifier is a
// connected subgraph of the graph, carrying the graph's current weights,
// both edge lists (u,v)-sorted without repeats — the maintainer reads
// membership and candidates straight off that order — and the condition
// number VerifyCond re-measures is within sigmaSq.
func AssertInvariant(t *testing.T, m *dynamic.Maintainer, sigmaSq float64) {
	t.Helper()
	g, p := m.Graph(), m.Sparsifier()
	if !p.IsConnected() {
		t.Fatal("testkit: sparsifier must stay connected")
	}
	for _, h := range []*graph.Graph{g, p} {
		es := h.Edges()
		for i, e := range es {
			if e.U >= e.V || (i > 0 && (es[i-1].U > e.U || (es[i-1].U == e.U && es[i-1].V >= e.V))) {
				t.Fatalf("testkit: %v edge %d (%d,%d) breaks the sorted, normalized, repeat-free order", h, i, e.U, e.V)
			}
		}
	}
	idx := g.EdgeIndex()
	for _, e := range p.Edges() {
		id, ok := idx[[2]int{e.U, e.V}]
		if !ok || g.Edge(id).W != e.W {
			t.Fatalf("testkit: sparsifier edge (%d,%d,w=%v) is not a graph edge", e.U, e.V, e.W)
		}
	}
	cond, err := VerifyCond(g, p, 0xbeef)
	if err != nil {
		t.Fatalf("testkit: verification failed: %v", err)
	}
	if cond > sigmaSq {
		t.Fatalf("testkit: verified κ = %.2f exceeds σ² = %.1f", cond, sigmaSq)
	}
}

// StreamStats summarizes one randomized stream run.
type StreamStats struct {
	Applied  int // batches accepted
	Rejected int // batches rejected with ErrWouldDisconnect
}

func (s StreamStats) String() string {
	return fmt.Sprintf("applied=%d rejected=%d", s.Applied, s.Rejected)
}
