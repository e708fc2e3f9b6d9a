package graphspar_test

// Multilevel and mode coverage of the facade: the degenerate coarsening
// settings must reproduce the single-shot pipeline, WithMode must pin the
// plan, and the mode/shards/budget combination rules must reject
// contradictions with typed errors.

import (
	"context"
	"errors"
	"testing"

	"graphspar"
	"graphspar/internal/gen"
)

// TestFacadeMultilevelDegenerateSingleShot pins the documented
// equivalence: one hierarchy level, or a coarsen ratio of 1, must yield
// the single-shot sparsifier bit for bit.
func TestFacadeMultilevelDegenerateSingleShot(t *testing.T) {
	for name, g := range facadeTestGraphs(t) {
		single, err := graphspar.New(
			graphspar.WithSigma2(50),
			graphspar.WithSeed(11),
			graphspar.WithShards(1),
		)
		if err != nil {
			t.Fatal(err)
		}
		want, err := single.Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		for variant, opt := range map[string]graphspar.Option{
			"one-level": graphspar.WithCoarsenLevels(1),
			"ratio-1":   graphspar.WithCoarsenRatio(1),
		} {
			s, err := graphspar.New(
				graphspar.WithSigma2(50),
				graphspar.WithSeed(11),
				graphspar.WithMode(graphspar.ModeMultilevel),
				opt,
			)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			if res.CoarsenDepth != 1 {
				t.Errorf("%s/%s: depth %d, want 1", name, variant, res.CoarsenDepth)
			}
			sameGraph(t, name+"/"+variant, res.Sparsifier, want.Sparsifier)
		}
	}
}

// TestFacadeModePins: WithMode forces the path regardless of graph size.
func TestFacadeModePins(t *testing.T) {
	g, err := gen.Grid2D(12, 12, gen.UniformWeights, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mode              graphspar.Mode
		sharded, multilvl bool
	}{
		{graphspar.ModeSingleShot, false, false},
		{graphspar.ModeSharded, true, false},
		{graphspar.ModeMultilevel, false, true},
	} {
		s, err := graphspar.New(graphspar.WithSigma2(80), graphspar.WithMode(tc.mode))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sharded != tc.sharded || res.Multilevel != tc.multilvl {
			t.Errorf("mode %v: Sharded=%v Multilevel=%v, want %v/%v",
				tc.mode, res.Sharded, res.Multilevel, tc.sharded, tc.multilvl)
		}
	}
}

func TestFacadeModeValidation(t *testing.T) {
	base := graphspar.WithSigma2(50)
	for name, opts := range map[string][]graphspar.Option{
		"single+shards":       {base, graphspar.WithMode(graphspar.ModeSingleShot), graphspar.WithShards(4)},
		"sharded+shards1":     {base, graphspar.WithMode(graphspar.ModeSharded), graphspar.WithShards(1)},
		"multilevel+shards":   {base, graphspar.WithMode(graphspar.ModeMultilevel), graphspar.WithShards(4)},
		"multilevel+shards1":  {base, graphspar.WithMode(graphspar.ModeMultilevel), graphspar.WithShards(1)},
		"multilevel+maxedges": {base, graphspar.WithMode(graphspar.ModeMultilevel), graphspar.WithMaxEdges(100)},
		"negative-levels":     {base, graphspar.WithCoarsenLevels(-1)},
		"ratio-above-1":       {base, graphspar.WithCoarsenRatio(1.5)},
		"ratio-negative":      {base, graphspar.WithCoarsenRatio(-0.2)},
		"unknown-mode-value":  {base, graphspar.WithMode(graphspar.Mode(42))},
	} {
		if _, err := graphspar.New(opts...); !errors.Is(err, graphspar.ErrInvalidOptions) {
			t.Errorf("%s: err = %v, want ErrInvalidOptions", name, err)
		}
	}
	// Compatible pins pass.
	if _, err := graphspar.New(base, graphspar.WithMode(graphspar.ModeSharded), graphspar.WithShards(8)); err != nil {
		t.Errorf("sharded+shards8: %v", err)
	}
	if _, err := graphspar.New(base, graphspar.WithMode(graphspar.ModeMultilevel),
		graphspar.WithCoarsenLevels(3), graphspar.WithCoarsenRatio(0.5)); err != nil {
		t.Errorf("multilevel+coarsen knobs: %v", err)
	}

	// ModeMultilevel is a Run-only path: streams cannot honor it.
	s, err := graphspar.New(base, graphspar.WithMode(graphspar.ModeMultilevel))
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Grid2D(4, 4, gen.UnitWeights, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Maintain(context.Background(), g); !errors.Is(err, graphspar.ErrInvalidOptions) {
		t.Errorf("multilevel+Maintain: err = %v, want ErrInvalidOptions", err)
	}
}

func TestParseMode(t *testing.T) {
	for name, want := range map[string]graphspar.Mode{
		"":           graphspar.ModeAuto,
		"auto":       graphspar.ModeAuto,
		"single":     graphspar.ModeSingleShot,
		"sharded":    graphspar.ModeSharded,
		"multilevel": graphspar.ModeMultilevel,
	} {
		got, err := graphspar.ParseMode(name)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := graphspar.ParseMode("bogus"); !errors.Is(err, graphspar.ErrInvalidOptions) {
		t.Errorf("ParseMode(bogus): err = %v, want ErrInvalidOptions", err)
	}
	if got := graphspar.ModeMultilevel.String(); got != "multilevel" {
		t.Errorf("ModeMultilevel.String() = %q", got)
	}
}
