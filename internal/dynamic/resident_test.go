package dynamic_test

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"graphspar/internal/core"
	"graphspar/internal/dynamic"
	"graphspar/internal/engine"
	"graphspar/internal/gen"
	"graphspar/internal/testkit"
	"graphspar/internal/vecmath"
)

// TestResidentBytesMatchesRetainedHeap checks the figure session budgets
// are charged with against the heap a maintainer actually retains: after
// 20 batches on a 64² grid, the live heap that a GC frees once the
// maintainer is dropped. The estimate used to charge 32 B an edge of
// adjacency index on both graphs, which the maintainer never builds, and
// 16 B an entry of L (it is 12); that read 1.36× the retained heap.
func TestResidentBytesMatchesRetainedHeap(t *testing.T) {
	g, err := gen.Grid2D(64, 64, gen.UniformWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dynamic.New(context.Background(), g, engine.Options{Sparsify: core.Options{SigmaSq: 100, Seed: 1}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := vecmath.NewRNG(5)
	for applied := 0; applied < 20; {
		if err := m.Apply(context.Background(), testkit.RandomBatch(m.Graph(), rng, 8)); err == nil {
			applied++
		} else if !errors.Is(err, dynamic.ErrWouldDisconnect) {
			t.Fatal(err)
		}
	}
	g = nil // m's graph is its own after the first batch

	var live, freed runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&live)
	estimate := m.ResidentBytes()
	m = nil
	runtime.GC()
	runtime.ReadMemStats(&freed)
	retained := int64(live.HeapAlloc) - int64(freed.HeapAlloc)
	if ratio := float64(estimate) / float64(retained); ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("ResidentBytes %d B is %.3f× the %d B the maintainer retained", estimate, ratio, retained)
	}
}
