package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"graphspar/internal/cholesky"
	"graphspar/internal/eig"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/lsst"
	"graphspar/internal/params"
	"graphspar/internal/pcg"
	"graphspar/internal/testkit/fixture"
	"graphspar/internal/vecmath"
)

func TestOptionsValidation(t *testing.T) {
	g, _ := gen.Grid2D(4, 4, gen.UnitWeights, 1)
	if _, err := Sparsify(g, Options{SigmaSq: 0.5}); !errors.Is(err, params.ErrBadSigma2) {
		t.Fatalf("err = %v, want ErrBadSigma2", err)
	}
	if _, err := Sparsify(g, Options{SigmaSq: 1}); !errors.Is(err, params.ErrBadSigma2) {
		t.Fatalf("σ²=1 must be rejected: %v", err)
	}
}

// TestEffectiveEmbedConstants pins the embedding every full-size pass
// runs — t = 2 steps, r = ⌈log₂(n+1)⌉ probes, 10 power iterations, a
// quarter of the passing candidates per batch. cmd/bench's probe and the
// dynamic maintainer size their embeddings from it.
func TestEffectiveEmbedConstants(t *testing.T) {
	for _, c := range []struct{ n, r int }{{1, 1}, {2, 2}, {576, 10}, {1 << 20, 21}} {
		tt, r, iters, fraction := Options{}.EffectiveEmbed(c.n)
		if tt != 2 || r != c.r || iters != 10 || fraction != 0.25 {
			t.Errorf("EffectiveEmbed(%d) = (%d, %d, %d, %v), want (2, %d, 10, 0.25)", c.n, tt, r, iters, fraction, c.r)
		}
	}
}

func TestSparsifyRejectsDisconnected(t *testing.T) {
	g, _ := graph.New(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if _, err := Sparsify(g, Options{SigmaSq: 100}); err == nil {
		t.Fatal("expected connectivity error")
	}
}

func TestSparsifyTreeInput(t *testing.T) {
	// A tree sparsifies to itself with κ = 1.
	g, _ := fixture.Path(20)
	res, err := Sparsify(g, Options{SigmaSq: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sparsifier.M() != g.M() {
		t.Fatalf("tree should keep all %d edges, got %d", g.M(), res.Sparsifier.M())
	}
	if math.Abs(res.SigmaSqAchieved-1) > 1e-6 {
		t.Fatalf("κ = %v, want 1", res.SigmaSqAchieved)
	}
}

func TestSparsifySingleVertex(t *testing.T) {
	// A one-vertex graph is its own sparsifier with κ = 1.
	g, _ := graph.New(1, nil)
	res, err := Sparsify(g, Options{SigmaSq: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sparsifier.N() != 1 || res.Sparsifier.M() != 0 || res.SigmaSqAchieved != 1 {
		t.Fatalf("got |V|=%d |E|=%d κ=%v, want the graph itself with κ = 1",
			res.Sparsifier.N(), res.Sparsifier.M(), res.SigmaSqAchieved)
	}
}

func TestSparsifyGridMeetsTarget(t *testing.T) {
	g, err := gen.Grid2D(20, 20, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sparsify(g, Options{SigmaSq: 30, Seed: 7})
	if err != nil {
		t.Fatalf("Sparsify: %v (achieved %v)", err, res)
	}
	if res.SigmaSqAchieved > 30 {
		t.Fatalf("σ² achieved %v > target 30", res.SigmaSqAchieved)
	}
	// Sparsifier must be a connected spanning subgraph.
	if !res.Sparsifier.IsConnected() {
		t.Fatal("sparsifier must be connected")
	}
	if res.Sparsifier.N() != g.N() {
		t.Fatal("vertex set must be preserved")
	}
	// Subgraph property: every sparsifier edge exists in G with the same
	// weight.
	gIdx := g.EdgeIndex()
	for _, e := range res.Sparsifier.Edges() {
		id, ok := gIdx[[2]int{e.U, e.V}]
		if !ok {
			t.Fatalf("edge %+v not in G", e)
		}
		if g.Edge(id).W != e.W {
			t.Fatalf("edge weight changed: %v vs %v", e.W, g.Edge(id).W)
		}
	}
	// Ultra-sparse: far fewer edges than G.
	if res.Sparsifier.M() >= g.M() {
		t.Fatal("sparsifier did not drop any edges")
	}
}

func TestSparsifyTighterTargetKeepsMoreEdges(t *testing.T) {
	g, err := gen.Grid2D(18, 18, gen.UniformWeights, 5)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Sparsify(g, Options{SigmaSq: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Sparsify(g, Options{SigmaSq: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Sparsifier.M() < loose.Sparsifier.M() {
		t.Fatalf("tighter σ² must keep at least as many edges: %d vs %d",
			tight.Sparsifier.M(), loose.Sparsifier.M())
	}
	if tight.SigmaSqAchieved > 10 || loose.SigmaSqAchieved > 200 {
		t.Fatalf("targets missed: %v / %v", tight.SigmaSqAchieved, loose.SigmaSqAchieved)
	}
}

func TestSparsifyRoundsRecorded(t *testing.T) {
	g, err := gen.Grid2D(15, 15, gen.UniformWeights, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sparsify(g, Options{SigmaSq: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) == 0 {
		t.Fatal("no round statistics recorded")
	}
	for i, r := range res.Rounds {
		if r.Round != i+1 {
			t.Fatalf("round numbering broken at %d", i)
		}
		if r.LambdaMin < 1-1e-9 {
			t.Fatalf("λmin estimate %v < 1 violates interlacing", r.LambdaMin)
		}
		if r.LambdaMax < r.LambdaMin-1e-9 {
			t.Fatalf("λmax %v < λmin %v", r.LambdaMax, r.LambdaMin)
		}
	}
	if res.Density() < 1.0-1e-12 {
		t.Fatalf("density %v below tree density", res.Density())
	}
}

func TestEstimateLambdaMinExactOnKnownCase(t *testing.T) {
	// G = triangle with unit weights, P = path 0-1-2. Degrees: G all 2;
	// P: deg(0)=1, deg(1)=2, deg(2)=1. Bound = min(2/1, 2/2, 2/1) = 1...
	// wait deg ratios: 2/1=2, 2/2=1, 2/1=2 → estimate 1. True λmin of
	// L_P⁺L_G on 1⊥ is also ≥ 1; estimate returns 1.
	g, _ := graph.New(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1}})
	p, _ := graph.New(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
	got := EstimateLambdaMin(g, p)
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("λ̃min = %v, want 1", got)
	}
}

func TestEstimateLambdaMinIdenticalGraphs(t *testing.T) {
	g, _ := gen.Grid2D(5, 5, gen.UniformWeights, 1)
	if got := EstimateLambdaMin(g, g); math.Abs(got-1) > 1e-12 {
		t.Fatalf("λ̃min(G,G) = %v, want 1", got)
	}
}

func TestThresholdBehaviour(t *testing.T) {
	// θσ = (σ²λmin/λmax)^(2t+1).
	if got := Threshold(100, 1, 1000, 2); math.Abs(got-math.Pow(0.1, 5)) > 1e-15 {
		t.Fatalf("θ = %v", got)
	}
	// Saturates at 1 when the target is already met.
	if got := Threshold(100, 1, 50, 2); got != 1 {
		t.Fatalf("θ should cap at 1, got %v", got)
	}
	// Degenerate λmax.
	if got := Threshold(100, 1, 0, 2); got != 1 {
		t.Fatalf("θ(λmax=0) = %v, want 1", got)
	}
	// Larger t sharpens the filter (smaller θ for base < 1).
	if Threshold(10, 1, 1000, 3) >= Threshold(10, 1, 1000, 1) {
		t.Fatal("threshold should shrink with t")
	}
}

func TestEmbedOffTreeHeatIdentity(t *testing.T) {
	// With t=0 the heats are just w(h0 diffs); with t>=1, per-vector heat
	// sums must equal hᵀ(L_G − L_P)h. We verify the identity for one
	// vector by reimplementing the iteration here.
	g, err := gen.Grid2D(6, 6, gen.UniformWeights, 11)
	if err != nil {
		t.Fatal(err)
	}
	backbone, _, offIDs, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	seed := uint64(99)
	rng := vecmath.NewRNG(seed)
	h := make([]float64, n)
	rng.FillRademacher(h)
	vecmath.Deflate(h)
	y := make([]float64, n)
	tSteps := 2
	for s := 0; s < tSteps; s++ {
		g.LapMulVec(y, h)
		backbone.Solve(h, y)
		vecmath.Deflate(h)
	}
	// Total heat over off-tree edges must equal hᵀL_G h − hᵀL_P h.
	p := backbone.Graph()
	want := g.LapQuadForm(h) - p.LapQuadForm(h)
	heats, _ := EmbedOffTree(g, backbone, offIDs, tSteps, 1, seed)
	var got float64
	for _, v := range heats {
		got += v
	}
	if math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
		t.Fatalf("heat total %v != quadratic-form difference %v", got, want)
	}
}

func TestEmbedOffTreeMoreVectorsMoreHeat(t *testing.T) {
	g, err := gen.Grid2D(8, 8, gen.UniformWeights, 13)
	if err != nil {
		t.Fatal(err)
	}
	backbone, _, offIDs, err := lsst.Extract(g, lsst.MaxWeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	h1, m1 := EmbedOffTree(g, backbone, offIDs, 2, 1, 5)
	h4, m4 := EmbedOffTree(g, backbone, offIDs, 2, 4, 5)
	if m1 <= 0 || m4 <= 0 {
		t.Fatal("zero max heat")
	}
	var s1, s4 float64
	for i := range h1 {
		s1 += h1[i]
		s4 += h4[i]
	}
	if s4 <= s1 {
		t.Fatalf("4-vector heat sum %v should exceed 1-vector %v", s4, s1)
	}
}

func TestSparsifySimilarityCheckReducesEdges(t *testing.T) {
	g, err := gen.Grid2D(16, 16, gen.UniformWeights, 31)
	if err != nil {
		t.Fatal(err)
	}
	with, err := Sparsify(g, Options{SigmaSq: 25, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Sparsify(g, Options{SigmaSq: 25, Seed: 4, DisableSimilarity: true})
	if err != nil {
		t.Fatal(err)
	}
	// Both must hit the target; the similarity check typically needs no
	// more edges (it spreads the additions).
	if with.SigmaSqAchieved > 25 || without.SigmaSqAchieved > 25 {
		t.Fatalf("targets missed: %v / %v", with.SigmaSqAchieved, without.SigmaSqAchieved)
	}
}

func TestVerifySimilarityAgreesWithEstimates(t *testing.T) {
	g, err := gen.Grid2D(12, 12, gen.UniformWeights, 41)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sparsify(g, Options{SigmaSq: 30, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh factor of P, not the one the filter loop ended on.
	fresh, err := cholesky.NewLapSolver(res.Sparsifier)
	if err != nil {
		t.Fatal(err)
	}
	lmax, lmin, cond, err := VerifySimilarity(g, res.Sparsifier, fresh, 60, 9)
	if err != nil {
		t.Fatal(err)
	}
	if cond > 30*1.5 {
		t.Fatalf("independent κ = %v far above target 30", cond)
	}
	if lmin < 1-1e-9 || lmax < lmin {
		t.Fatalf("Lanczos extremes inconsistent: %v %v", lmin, lmax)
	}
	// The filter loop's power-iteration estimate should be within a factor
	// ~1.5 of Lanczos.
	if res.LambdaMax > lmax*1.5+1 || lmax > res.LambdaMax*1.5+1 {
		t.Fatalf("λmax estimates diverge: power %v vs lanczos %v", res.LambdaMax, lmax)
	}
	// A long power iteration through tree-preconditioned PCG — an L_P⁺
	// applier that shares no code with the Cholesky factor — converges to
	// the same top eigenvalue from below; 60 Lanczos steps should have it
	// too.
	pcgSolver := &eig.PCGSolver{G: res.Sparsifier, M: pcg.TreePrecond{T: res.Tree}, Tol: 1e-10, MaxIter: 4 * g.N()}
	power, err := eig.GeneralizedPowerMax(g, res.Sparsifier, pcgSolver, 300, 1e-10, 9)
	if err != nil {
		t.Fatal(err)
	}
	if power.Value > lmax*(1+1e-6) || power.Value < lmax*0.95 {
		t.Fatalf("λmax: PCG power iteration %v vs Lanczos %v", power.Value, lmax)
	}
}

func TestHeatSpectrum(t *testing.T) {
	g, err := gen.Grid2D(15, 15, gen.UniformWeights, 51)
	if err != nil {
		t.Fatal(err)
	}
	norm, ths, err := HeatSpectrum(g, 1, 4, []float64{100, 500}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(norm) == 0 || len(ths) != 2 {
		t.Fatalf("spectrum sizes: %d heats, %d thresholds", len(norm), len(ths))
	}
	// Sorted descending, normalized to max 1.
	if math.Abs(norm[0]-1) > 1e-12 {
		t.Fatalf("top normalized heat %v, want 1", norm[0])
	}
	for i := 0; i+1 < len(norm); i++ {
		if norm[i] < norm[i+1] {
			t.Fatal("heats not sorted descending")
		}
	}
	// Looser σ² (500) keeps fewer edges → higher threshold.
	if ths[1] <= ths[0] {
		t.Fatalf("θ(500)=%v should exceed θ(100)=%v", ths[1], ths[0])
	}
}

func TestHeatSpectrumOnTreeFails(t *testing.T) {
	g, _ := fixture.Path(10)
	if _, _, err := HeatSpectrum(g, 1, 2, []float64{100}, 1); err == nil {
		t.Fatal("tree has no off-tree edges; expected error")
	}
}

func TestSparsifyConnectedAtTarget(t *testing.T) {
	g, err := gen.Grid2D(12, 12, gen.UniformWeights, 55)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sparsify(g, Options{SigmaSq: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.SigmaSqAchieved > 40 {
		t.Fatalf("σ² achieved %v", res.SigmaSqAchieved)
	}
	if !res.Sparsifier.IsConnected() {
		t.Fatal("disconnected sparsifier")
	}
}

// Property: the sparsifier is always a connected spanning subgraph and the
// quadratic-form bound x'L_P x <= x'L_G x holds (P ⊆ G with same weights).
func TestQuickSparsifierDominatedQuadForm(t *testing.T) {
	f := func(seed uint64) bool {
		rng := vecmath.NewRNG(seed)
		g, err := gen.Grid2D(6+rng.Intn(5), 6+rng.Intn(5), gen.UniformWeights, seed)
		if err != nil {
			return false
		}
		res, err := Sparsify(g, Options{SigmaSq: 40, Seed: seed})
		if err != nil {
			return false
		}
		if !res.Sparsifier.IsConnected() {
			return false
		}
		x := make([]float64, g.N())
		for trial := 0; trial < 5; trial++ {
			rng.FillNormal(x)
			if res.Sparsifier.LapQuadForm(x) > g.LapQuadForm(x)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// Property: achieved σ² estimate respects the requested target across
// random seeds and sizes.
func TestQuickSigmaTargetsMet(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.Grid2D(10, 11, gen.UniformWeights, seed)
		if err != nil {
			return false
		}
		for _, s2 := range []float64{15, 60} {
			res, err := Sparsify(g, Options{SigmaSq: s2, Seed: seed})
			if err != nil || res.SigmaSqAchieved > s2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSparsifyGrid(b *testing.B) {
	g, err := gen.Grid2D(40, 40, gen.UniformWeights, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sparsify(g, Options{SigmaSq: 100, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}
