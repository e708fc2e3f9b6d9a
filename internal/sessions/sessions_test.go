package sessions

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphspar/internal/core"
	"graphspar/internal/dynamic"
	"graphspar/internal/engine"
	"graphspar/internal/gen"
	"graphspar/internal/graph"
)

// fakeMaintainer implements Maintainer without the numeric machinery, so
// the manager's bookkeeping can be tested in microseconds. Apply really
// mutates the graph (through dynamic.ApplyToGraph) so hash tracking is
// exercised for real.
type fakeMaintainer struct {
	g       *graph.Graph
	bytes   int64
	applies int
	updates int
	// busy flips to 1 while any method runs; concurrent entry trips raced.
	busy  atomic.Int32
	raced atomic.Bool
	delay time.Duration
}

func (f *fakeMaintainer) enter() func() {
	if !f.busy.CompareAndSwap(0, 1) {
		f.raced.Store(true)
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	return func() { f.busy.Store(0) }
}

func (f *fakeMaintainer) Apply(ctx context.Context, batch []dynamic.Update) error {
	defer f.enter()()
	g2, err := dynamic.ApplyToGraph(f.g, batch)
	if err != nil {
		return err
	}
	f.g = g2
	f.applies++
	f.updates += len(batch)
	return nil
}

func (f *fakeMaintainer) Rebuild(ctx context.Context) error { defer f.enter()(); return nil }
func (f *fakeMaintainer) Graph() *graph.Graph               { return f.g }
func (f *fakeMaintainer) Sparsifier() *graph.Graph          { return f.g }
func (f *fakeMaintainer) Cond() float64                     { return 1 }
func (f *fakeMaintainer) TargetMet() bool                   { return true }
func (f *fakeMaintainer) ResidentBytes() int64              { return f.bytes }
func (f *fakeMaintainer) Stats() dynamic.Stats {
	return dynamic.Stats{Applies: f.applies, Updates: f.updates, Cond: 1, TargetMet: true}
}

func testGraph(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.Grid2D(4, 4, gen.UniformWeights, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestInstallGetApplyTracksHash(t *testing.T) {
	mgr := NewManager(Options{})
	g := testGraph(t, 1)
	h0 := g.ContentHash()
	sess := mgr.Install("g", "k1", &fakeMaintainer{g: g, bytes: 100})
	if sess == nil {
		t.Fatal("install returned nil")
	}
	if got := mgr.Get("g", h0, "k1"); got != sess {
		t.Fatal("matching Get must hit")
	}
	if got := mgr.Get("g", h0, "other-params"); got != nil {
		t.Fatal("key mismatch must miss")
	}
	if mgr.Len() != 1 {
		t.Fatalf("key mismatch must keep the session, have %d", mgr.Len())
	}

	batch := []dynamic.Update{dynamic.Insert(0, 15, 2)}
	if err := sess.DoMutate(context.Background(), func(m Maintainer) (string, error) {
		return "", m.Apply(context.Background(), batch)
	}); err != nil {
		t.Fatal(err)
	}
	if sess.Hash() == h0 {
		t.Fatal("hash must advance after a mutating request")
	}
	// A caller holding the pre-apply hash (stale registry snapshot)
	// misses — but must NOT destroy the session, which is healthy; the
	// caller simply re-reads and retries.
	if got := mgr.Get("g", h0, "k1"); got != nil {
		t.Fatal("stale caller hash must miss")
	}
	if mgr.Len() != 1 {
		t.Fatal("a stale caller snapshot must not destroy a healthy session")
	}
	if got := mgr.Get("g", sess.Hash(), "k1"); got != sess {
		t.Fatal("current hash must hit again")
	}

	// InvalidateStale with the session's own hash is a no-op; with a
	// different (authoritative) hash it reaps the session.
	if mgr.InvalidateStale("g", sess.Hash()) {
		t.Fatal("InvalidateStale must keep an in-lockstep session")
	}
	if !mgr.InvalidateStale("g", "authoritative-new-hash") {
		t.Fatal("InvalidateStale must reap a session behind the registry")
	}
	if err := sess.Do(context.Background(), func(Maintainer) error { return nil }); !errors.Is(err, ErrSessionGone) {
		t.Fatalf("Do on invalidated session = %v, want ErrSessionGone", err)
	}
	st := mgr.Stats()
	if st.Hits != 2 || st.Invalidations != 1 || st.Installs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSessionInvalidateIsIdentityChecked(t *testing.T) {
	mgr := NewManager(Options{})
	old := mgr.Install("g", "k", &fakeMaintainer{g: testGraph(t, 1), bytes: 10})
	// A replacement install under the same name supersedes old.
	repl := mgr.Install("g", "k", &fakeMaintainer{g: testGraph(t, 2), bytes: 10})
	// Invalidating through the superseded session must not touch the
	// replacement (the failure it reports belongs to the old state).
	old.Invalidate()
	if err := repl.Do(context.Background(), func(Maintainer) error { return nil }); err != nil {
		t.Fatalf("replacement session must survive the old session's Invalidate: %v", err)
	}
	// Invalidating the registered session itself works.
	repl.Invalidate()
	if err := repl.Do(context.Background(), func(Maintainer) error { return nil }); !errors.Is(err, ErrSessionGone) {
		t.Fatalf("Do = %v, want ErrSessionGone", err)
	}
}

func TestLRUCapEviction(t *testing.T) {
	mgr := NewManager(Options{MaxSessions: 2})
	var sessions []*Session
	for i, name := range []string{"a", "b", "c"} {
		sessions = append(sessions, mgr.Install(name, "k", &fakeMaintainer{g: testGraph(t, uint64(i+1)), bytes: 10}))
	}
	if mgr.Len() != 2 {
		t.Fatalf("len = %d, want 2", mgr.Len())
	}
	if err := sessions[0].Do(context.Background(), func(Maintainer) error { return nil }); !errors.Is(err, ErrSessionGone) {
		t.Fatalf("oldest session must be evicted, Do = %v", err)
	}
	if err := sessions[2].Do(context.Background(), func(Maintainer) error { return nil }); err != nil {
		t.Fatalf("newest session must survive: %v", err)
	}
	if mgr.Stats().Evictions != 1 {
		t.Fatalf("stats = %+v", mgr.Stats())
	}
}

func TestMemoryBudgetEviction(t *testing.T) {
	mgr := NewManager(Options{MaxResidentBytes: 1000})
	a := mgr.Install("a", "k", &fakeMaintainer{g: testGraph(t, 1), bytes: 600})
	b := mgr.Install("b", "k", &fakeMaintainer{g: testGraph(t, 2), bytes: 600})
	if err := a.Do(context.Background(), func(Maintainer) error { return nil }); !errors.Is(err, ErrSessionGone) {
		t.Fatalf("over-budget install must evict the LRU session, Do = %v", err)
	}
	if err := b.Do(context.Background(), func(Maintainer) error { return nil }); err != nil {
		t.Fatalf("most recent session survives the budget: %v", err)
	}
	// A single session over the whole budget stays resident (no thrash).
	mgr2 := NewManager(Options{MaxResidentBytes: 10})
	huge := mgr2.Install("big", "k", &fakeMaintainer{g: testGraph(t, 3), bytes: 1 << 20})
	if err := huge.Do(context.Background(), func(Maintainer) error { return nil }); err != nil {
		t.Fatalf("oversized sole session must stay: %v", err)
	}
}

func TestIdleTTLExpires(t *testing.T) {
	mgr := NewManager(Options{IdleTTL: 30 * time.Millisecond})
	sess := mgr.Install("g", "k", &fakeMaintainer{g: testGraph(t, 1), bytes: 10})
	deadline := time.Now().Add(5 * time.Second)
	for mgr.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := sess.Do(context.Background(), func(Maintainer) error { return nil }); !errors.Is(err, ErrSessionGone) {
		t.Fatalf("Do after expiry = %v, want ErrSessionGone", err)
	}
	if mgr.Stats().Expirations != 1 {
		t.Fatalf("stats = %+v", mgr.Stats())
	}
}

func TestDisabledManagerDropsEverything(t *testing.T) {
	mgr := NewManager(Options{MaxSessions: -1})
	if sess := mgr.Install("g", "k", &fakeMaintainer{g: testGraph(t, 1)}); sess != nil {
		t.Fatal("disabled manager must drop installs")
	}
	if got := mgr.Get("g", "h", "k"); got != nil {
		t.Fatal("disabled manager must miss")
	}
}

func TestCloseDrainsAcceptedWork(t *testing.T) {
	mgr := NewManager(Options{})
	fm := &fakeMaintainer{g: testGraph(t, 1), bytes: 10, delay: 20 * time.Millisecond}
	sess := mgr.Install("g", "k", fm)

	var wg sync.WaitGroup
	var done atomic.Int32
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := sess.Do(context.Background(), func(m Maintainer) error { return m.Rebuild(context.Background()) })
			if err == nil {
				done.Add(1)
			} else if !errors.Is(err, ErrSessionGone) {
				t.Errorf("Do = %v", err)
			}
		}()
	}
	// Guarantee at least one request was accepted before the drain: this
	// synchronous call only returns once the actor has executed it.
	if err := sess.Do(context.Background(), func(m Maintainer) error { return m.Rebuild(context.Background()) }); err == nil {
		done.Add(1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := mgr.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	if done.Load() == 0 {
		t.Fatal("accepted work must complete during drain")
	}
	if fm.raced.Load() {
		t.Fatal("maintainer accessed concurrently")
	}
	if sess := mgr.Install("late", "k", &fakeMaintainer{g: testGraph(t, 2)}); sess != nil {
		t.Fatal("closed manager must reject installs")
	}
}

// TestSerializedUnderContention hammers one session from many goroutines;
// the fake maintainer trips `raced` if two requests ever overlap. Run
// with -race in CI.
func TestSerializedUnderContention(t *testing.T) {
	mgr := NewManager(Options{})
	fm := &fakeMaintainer{g: testGraph(t, 1), bytes: 10}
	sess := mgr.Install("g", "k", fm)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = sess.Do(context.Background(), func(m Maintainer) error {
					if j%2 == 0 {
						return m.Rebuild(context.Background())
					}
					_ = Snapshot(m)
					return nil
				})
			}
		}(i)
	}
	wg.Wait()
	if fm.raced.Load() {
		t.Fatal("maintainer accessed concurrently through the actor loop")
	}
	if st, err := snapshot(sess); err != nil || !st.TargetMet {
		t.Fatalf("stats after contention: %+v err=%v", st, err)
	}
}

// snapshot reads a session's telemetry through its actor loop: Do +
// Snapshot, the route the service takes.
func snapshot(s *Session) (Stats, error) {
	var st Stats
	err := s.Do(context.Background(), func(m Maintainer) error {
		st = Snapshot(m)
		return nil
	})
	return st, err
}

// TestRealMaintainerRoundTrip wires an actual dynamic.Maintainer through
// a session: apply a batch, check the certificate survived and the
// telemetry mirrors the maintainer's counters.
func TestRealMaintainerRoundTrip(t *testing.T) {
	g, err := gen.Grid2D(10, 10, gen.UniformWeights, 7)
	if err != nil {
		t.Fatal(err)
	}
	const sigmaSq = 50
	m, err := dynamic.New(context.Background(), g, engine.Options{Sparsify: core.Options{SigmaSq: sigmaSq, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(Options{})
	sess := mgr.Install("grid", "s2=50", m)
	if sess.Hash() != g.ContentHash() {
		t.Fatal("installed hash mismatch")
	}
	if err := sess.DoMutate(context.Background(), func(mm Maintainer) (string, error) {
		return "", mm.Apply(context.Background(), []dynamic.Update{dynamic.Insert(0, 99, 1.5)})
	}); err != nil {
		t.Fatal(err)
	}
	st, err := snapshot(sess)
	if err != nil {
		t.Fatal(err)
	}
	if st.BatchesApplied != 1 || st.UpdatesApplied != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if !st.TargetMet || st.Cond <= 0 || st.Cond > sigmaSq {
		t.Fatalf("certificate after session apply: %+v", st)
	}
	if st.ResidentBytes <= 0 {
		t.Fatalf("resident bytes estimate missing: %+v", st)
	}
}
