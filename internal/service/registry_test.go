package service

import (
	"errors"
	"testing"

	"graphspar/internal/gen"
	"graphspar/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Grid2D(5, 5, gen.UniformWeights, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestHashGraphCanonical(t *testing.T) {
	// Same structure supplied in different edge orders/orientations must
	// hash identically (graph.New normalizes).
	a := graph.MustNew(3, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}})
	b := graph.MustNew(3, []graph.Edge{{U: 2, V: 1, W: 3}, {U: 1, V: 0, W: 2}})
	if HashGraph(a) != HashGraph(b) {
		t.Error("hash differs for structurally equal graphs")
	}
	c := graph.MustNew(3, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 4}})
	if HashGraph(a) == HashGraph(c) {
		t.Error("hash collides across different weights")
	}
	d := graph.MustNew(4, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}})
	if HashGraph(a) == HashGraph(d) {
		t.Error("hash collides across different vertex counts")
	}
}

func TestRegistryRegisterGetDelete(t *testing.T) {
	r := NewRegistry()
	g := testGraph(t)

	e, err := r.Register("grid5", "grid:5x5:uniform", g)
	if err != nil {
		t.Fatal(err)
	}
	if e.N != g.N() || e.M != g.M() || e.Hash == "" {
		t.Errorf("bad entry: %+v", e)
	}

	got, err := r.Get("grid5")
	if err != nil || got != e {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if _, err := r.Get("nope"); !errors.Is(err, ErrGraphNotFound) {
		t.Errorf("missing graph: err = %v, want ErrGraphNotFound", err)
	}

	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
	if gone, err := r.Delete("grid5"); err != nil || gone.Name != "grid5" {
		t.Fatalf("delete: %+v, %v", gone, err)
	}
	if _, err := r.Delete("grid5"); !errors.Is(err, ErrGraphNotFound) {
		t.Errorf("double delete: err = %v, want ErrGraphNotFound", err)
	}
}

func TestRegistryNameConflict(t *testing.T) {
	r := NewRegistry()
	g := testGraph(t)
	if _, err := r.Register("g", "spec", g); err != nil {
		t.Fatal(err)
	}
	// Same name + same content is idempotent.
	if _, err := r.Register("g", "spec", g); err != nil {
		t.Errorf("idempotent re-register failed: %v", err)
	}
	// Same name + different content conflicts.
	other := graph.MustNew(2, []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, err := r.Register("g", "spec2", other); !errors.Is(err, ErrGraphExists) {
		t.Errorf("conflicting register: err = %v, want ErrGraphExists", err)
	}
}

func TestRegistryBadNames(t *testing.T) {
	r := NewRegistry()
	g := testGraph(t)
	for _, name := range []string{"", "has space", "a/b", "-leading", string(make([]byte, 200))} {
		if _, err := r.Register(name, "spec", g); !errors.Is(err, ErrBadGraphName) {
			t.Errorf("Register(%q): err = %v, want ErrBadGraphName", name, err)
		}
	}
	for _, name := range []string{"g", "grid-40x40", "a.b_c-d", "X9"} {
		if _, err := r.Register(name, "spec", g); err != nil {
			t.Errorf("Register(%q): unexpected err %v", name, err)
		}
	}
}

func TestRegistryListSorted(t *testing.T) {
	r := NewRegistry()
	g := testGraph(t)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := r.Register(name, "spec", g); err != nil {
			t.Fatal(err)
		}
	}
	got := r.List()
	want := []string{"alpha", "mid", "zeta"}
	for i, e := range got {
		if e.Name != want[i] {
			t.Fatalf("List order = %v, want %v", got, want)
		}
	}
}
