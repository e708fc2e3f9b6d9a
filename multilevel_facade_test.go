package graphspar_test

// Multilevel and mode coverage of the facade: a graph too small to coarsen
// must reproduce the single-shot pipeline, WithMode must pin the plan, and
// an unknown mode or a multilevel stream is a typed error.

import (
	"context"
	"errors"
	"testing"

	"graphspar"
	"graphspar/internal/gen"
)

// TestFacadeMultilevelDegenerateSingleShot pins the documented
// equivalence: a graph at or below the coarsest-size floor (every facade
// test graph is) never coarsens, and the multilevel plan must yield the
// single-shot sparsifier bit for bit.
func TestFacadeMultilevelDegenerateSingleShot(t *testing.T) {
	for name, g := range facadeTestGraphs(t) {
		single, err := graphspar.New(
			graphspar.WithSigma2(50),
			graphspar.WithSeed(11),
			graphspar.WithMode(graphspar.ModeSingleShot),
		)
		if err != nil {
			t.Fatal(err)
		}
		want, err := single.Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		s, err := graphspar.New(
			graphspar.WithSigma2(50),
			graphspar.WithSeed(11),
			graphspar.WithMode(graphspar.ModeMultilevel),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if res.CoarsenDepth != 1 {
			t.Errorf("%s: depth %d, want 1", name, res.CoarsenDepth)
		}
		sameGraph(t, name, res.Sparsifier, want.Sparsifier)
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
	if _, err := graphspar.New(base, graphspar.WithMode(graphspar.Mode(42))); !errors.Is(err, graphspar.ErrInvalidOptions) {
		t.Errorf("unknown mode value: err = %v, want ErrInvalidOptions", err)
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
