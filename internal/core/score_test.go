package core

import (
	"testing"

	"graphspar/internal/gen"
	"graphspar/internal/lsst"
)

// The exported scorer must reproduce EmbedOffTree's heats bit-for-bit when
// built with the same embedding parameters: the dynamic maintainer relies
// on scoring new edges against thresholds computed from EmbedOffTree-style
// heats.
func TestEdgeScorerMatchesEmbedOffTree(t *testing.T) {
	g, err := gen.Grid2D(12, 12, gen.UniformWeights, 7)
	if err != nil {
		t.Fatal(err)
	}
	backbone, _, offIDs, err := lsst.Extract(g, lsst.MaxWeight, 7)
	if err != nil {
		t.Fatal(err)
	}
	const tt, r, seed = 2, 6, 99
	want, wantMax := EmbedOffTree(g, backbone, offIDs, tt, r, seed)

	sc := NewEdgeScorer(g, backbone, tt, r, seed, 3)
	got, gotMax := sc.Score(g, offIDs)
	if gotMax != wantMax {
		t.Fatalf("max heat: got %v want %v", gotMax, wantMax)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("heat[%d]: got %v want %v", i, got[i], want[i])
		}
		if h := sc.Heat(g.Edge(offIDs[i])); h != want[i] {
			t.Fatalf("Heat(edge %d): got %v want %v", offIDs[i], h, want[i])
		}
	}
}

// One warm-started Step must keep probe vectors zero-mean and must match a
// from-scratch embedding of depth t+1 (same seeds, one extra step).
func TestEdgeScorerStepDeepensEmbedding(t *testing.T) {
	g, err := gen.Grid2D(10, 10, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	backbone, _, offIDs, err := lsst.Extract(g, lsst.MaxWeight, 3)
	if err != nil {
		t.Fatal(err)
	}
	const r, seed = 5, 42
	sc := NewEdgeScorer(g, backbone, 1, r, seed, 2)
	sc.Step(g, backbone, 2)
	deeper := NewEdgeScorer(g, backbone, 2, r, seed, 1)

	got, _ := sc.Score(g, offIDs)
	want, _ := deeper.Score(g, offIDs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stepped heat[%d]: got %v want %v", i, got[i], want[i])
		}
	}
	for j, h := range sc.Probes {
		var mean float64
		for _, v := range h {
			mean += v
		}
		mean /= float64(len(h))
		if mean > 1e-12 || mean < -1e-12 {
			t.Fatalf("probe %d mean %v after Step, want 0", j, mean)
		}
	}
}
