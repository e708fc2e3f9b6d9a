package cluster

import (
	"errors"
	"testing"

	"graphspar/internal/cholesky"
	"graphspar/internal/core"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
	"graphspar/internal/pcg"
	"graphspar/internal/testkit/fixture"
)

func TestSpectralKMeansRecoversSBM(t *testing.T) {
	g, truth, err := gen.SBM(3, 40, 0.5, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := cholesky.NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SpectralKMeans(g, ls, Options{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Agreement(res.Labels, truth, 3)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("planted partition recovery %.2f < 0.95", acc)
	}
	if len(res.Eigvals) != 3 || res.Eigvals[0] <= 0 {
		t.Fatalf("eigenvalues wrong: %v", res.Eigvals)
	}
}

func TestSpectralKMeansOnSparsifierMatches(t *testing.T) {
	g, truth, err := gen.SBM(4, 30, 0.5, 0.02, 11)
	if err != nil {
		t.Fatal(err)
	}
	accAt := func(s2 float64) float64 {
		sp, err := core.Sparsify(g, core.Options{SigmaSq: s2, Seed: 3})
		if err != nil && !errors.Is(err, core.ErrNoTarget) {
			t.Fatal(err)
		}
		chol, err := pcg.NewCholPrecond(sp.Sparsifier)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SpectralKMeans(sp.Sparsifier, chol.S, Options{K: 4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		acc, err := Agreement(res.Labels, truth, 4)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	// A tight sparsifier must recover the planted blocks almost exactly,
	// and accuracy must degrade gracefully (not collapse) as σ² loosens —
	// the similarity-aware trade-off applied to clustering.
	tight := accAt(5)
	loose := accAt(30)
	if tight < 0.9 {
		t.Fatalf("σ²=5 clustering accuracy %.2f < 0.9", tight)
	}
	if loose > tight+1e-9 {
		t.Fatalf("looser σ² should not beat tighter: %.2f vs %.2f", loose, tight)
	}
	if loose < 0.5 {
		t.Fatalf("σ²=30 accuracy collapsed: %.2f", loose)
	}
}

func TestSpectralKMeansNormalizedRecoversSBM(t *testing.T) {
	g, truth, err := gen.SBM(3, 40, 0.5, 0.01, 17)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := cholesky.NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SpectralKMeans(g, ls, Options{K: 3, Normalized: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Agreement(res.Labels, truth, 3)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("normalized recovery %.2f < 0.95", acc)
	}
}

func TestSpectralKMeansValidation(t *testing.T) {
	g, _ := fixture.Path(6)
	ls, _ := cholesky.NewLapSolver(g)
	if _, err := SpectralKMeans(g, ls, Options{K: 1}); err == nil {
		t.Fatal("K=1 should fail")
	}
	if _, err := SpectralKMeans(g, ls, Options{K: 6}); err == nil {
		t.Fatal("K=n should fail")
	}
	disc, _ := graph.New(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if _, err := SpectralKMeans(disc, ls, Options{K: 2}); err == nil {
		t.Fatal("disconnected should fail")
	}
}

func TestSpectralKMeansPathBisection(t *testing.T) {
	// K=2 on a path should split it into two contiguous halves.
	g, _ := fixture.Path(40)
	ls, err := cholesky.NewLapSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SpectralKMeans(g, ls, Options{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	changes := 0
	for i := 0; i+1 < len(res.Labels); i++ {
		if res.Labels[i] != res.Labels[i+1] {
			changes++
		}
	}
	if changes != 1 {
		t.Fatalf("path bisection has %d label changes, want 1", changes)
	}
}

func TestAgreement(t *testing.T) {
	perfect, err := Agreement([]int{0, 0, 1, 1}, []int{1, 1, 0, 0}, 2)
	if err != nil || perfect != 1 {
		t.Fatalf("label-permuted agreement = %v, err=%v", perfect, err)
	}
	half, err := Agreement([]int{0, 0, 0, 0}, []int{0, 0, 1, 1}, 2)
	if err != nil || half != 0.5 {
		t.Fatalf("agreement = %v", half)
	}
	if _, err := Agreement([]int{0}, []int{0, 1}, 2); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := Agreement([]int{5}, []int{0}, 2); err == nil {
		t.Fatal("out-of-range label should fail")
	}
	if _, err := Agreement(nil, nil, 2); err == nil {
		t.Fatal("empty should fail")
	}
}

func TestKMeansEmptyClusterReseed(t *testing.T) {
	// Two well-separated pairs plus K=3 forces an empty-cluster reseed
	// path at some point; result must still be a valid labeling.
	pts := [][]float64{{0, 0}, {0.1, 0}, {10, 0}, {10.1, 0}}
	labels, inertia := kMeans(pts, 3, 20, 2, 1)
	if len(labels) != 4 {
		t.Fatal("labels wrong length")
	}
	if inertia < 0 {
		t.Fatal("negative inertia")
	}
	// The two far points must never share a cluster with the near pair's
	// members' cluster AND each other... weaker: pairs (0,1) should agree.
	if labels[0] != labels[1] && labels[2] != labels[3] {
		t.Fatalf("unexpected split: %v", labels)
	}
}
