// Package service implements the sparsifyd daemon: a long-running HTTP
// front end over the similarity-aware sparsifier. It is organized as
// three cooperating pieces — a named, content-hashed graph registry
// (registry.go), a bounded-concurrency async job queue (jobs.go), and an
// LRU result cache keyed by (graph hash, canonical request) (cache.go) —
// stitched together by the HTTP handlers (handlers.go). cmd/serve wires
// it to a net/http server.
package service

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"graphspar/internal/graph"
)

// Registry errors, mapped to HTTP status codes by the handlers.
var (
	ErrGraphExists   = errors.New("service: graph name already registered")
	ErrGraphNotFound = errors.New("service: graph not found")
	ErrBadGraphName  = errors.New("service: invalid graph name")
	ErrGraphChanged  = errors.New("service: graph was modified concurrently")
)

// nameRE restricts registry names to something safe for URL paths.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// GraphEntry is one registered graph plus its immutable metadata. The
// Hash is a content address over the canonical edge list, so two uploads
// of the same graph under different names share cache entries.
type GraphEntry struct {
	Name      string
	Hash      string // hex sha256 of the canonical (n, sorted edges) encoding
	Source    string // generator spec or "upload"
	N, M      int
	CreatedAt time.Time
	Graph     *graph.Graph
}

// Registry is a concurrency-safe name → graph store.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*GraphEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*GraphEntry)}
}

// HashGraph content-addresses a graph via the one canonical encoding
// (graph.ContentHash) — the session manager compares these against
// registry hashes, so there must be exactly one implementation.
func HashGraph(g *graph.Graph) string { return g.ContentHash() }

// Register stores g under name. The name must be URL-safe and unused;
// re-registering the same name with an identical graph is an idempotent
// success, while a different graph under an existing name fails with
// ErrGraphExists.
func (r *Registry) Register(name, source string, g *graph.Graph) (*GraphEntry, error) {
	if !nameRE.MatchString(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadGraphName, name)
	}
	e := &GraphEntry{
		Name:      name,
		Hash:      HashGraph(g),
		Source:    source,
		N:         g.N(),
		M:         g.M(),
		CreatedAt: time.Now().UTC(),
		Graph:     g,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.entries[name]; ok {
		if prev.Hash == e.Hash {
			return prev, nil
		}
		return nil, fmt.Errorf("%w: %q", ErrGraphExists, name)
	}
	r.entries[name] = e
	return e, nil
}

// Get looks a graph up by name.
func (r *Registry) Get(name string) (*GraphEntry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	return e, nil
}

// Update replaces the graph stored under name with a mutated version,
// re-hashing the content address. prevHash makes the swap a compare-and-
// set: the replacement only lands if the stored graph still has that
// content hash, so two concurrent PATCHes cannot silently overwrite each
// other — the loser gets ErrGraphChanged and re-applies its batch to the
// winner's graph. CreatedAt is preserved so the entry's age reflects the
// original registration, and Source records that the graph has been
// patched.
func (r *Registry) Update(name, prevHash string, g *graph.Graph) (*GraphEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	if prev.Hash != prevHash {
		return nil, fmt.Errorf("%w: %q", ErrGraphChanged, name)
	}
	source := prev.Source
	if !strings.HasSuffix(source, "+patched") {
		source += "+patched"
	}
	e := &GraphEntry{
		Name:      name,
		Hash:      HashGraph(g),
		Source:    source,
		N:         g.N(),
		M:         g.M(),
		CreatedAt: prev.CreatedAt,
		Graph:     g,
	}
	r.entries[name] = e
	return e, nil
}

// Delete removes a graph by name and returns the entry it held.
func (r *Registry) Delete(name string) (*GraphEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	delete(r.entries, name)
	return e, nil
}

// List returns all entries sorted by name.
func (r *Registry) List() []*GraphEntry {
	r.mu.RLock()
	out := make([]*GraphEntry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// HasHash reports whether any registered graph currently has this
// content hash. The job queue gates cache writes on it so a job that
// finishes after its graph was PATCHed (re-hashed) does not re-insert a
// result under the dead hash that InvalidateGraph already swept. O(n)
// over the registry, which holds few graphs relative to job volume.
func (r *Registry) HasHash(hash string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.entries {
		if e.Hash == hash {
			return true
		}
	}
	return false
}

// Len reports the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}
