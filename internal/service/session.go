package service

import (
	"context"
	"errors"
	"fmt"

	"graphspar/internal/dynamic"
	"graphspar/internal/obs"
	"graphspar/internal/sessions"
)

// This file is the one route from a request to a maintainer. PATCH, the
// stream endpoint and incremental jobs all reach the graph's session
// through withSession; only the stream and the job carry the parameters a
// build needs, so only they ever create one.

// Session-consistency sentinels. Stale means the registry moved without
// the session (a cold PATCH won a race); corrupt means the maintainer
// mutated past its commit point but the registry swap failed, so the
// session can no longer be trusted. Both close the session; stale is
// retryable, corrupt surfaces as a 500. errNoSession is a miss the caller
// brought no parameters to build from (PATCH), or sessions being off.
var (
	errSessionStale   = errors.New("service: session is stale against the registry")
	errSessionCorrupt = errors.New("service: session diverged from the registry")
	errNoSession      = errors.New("service: graph has no resident session")
)

// patchRetries bounds how often one request re-reads the registry after
// losing a race: a session that went stale or was closed between lookup
// and use, or a cold compare-and-set that found the graph changed.
const patchRetries = 4

// buildOrigin is the closed label set of the session-build counter.
type buildOrigin string

const (
	originStream buildOrigin = "stream"
	originJob    buildOrigin = "job"
)

// session returns the resident session for name when it holds the
// registry's current graph and (when p is given) was configured by the
// same parameters. On a miss with parameters it builds the maintainer —
// a full sparsification, so it takes a slot of the bound the job workers
// share, and looks again after the wait: a racing request may have built
// it meanwhile — and leaves it resident. On a miss without parameters it
// reports errNoSession.
func (s *Server) session(ctx context.Context, name string, p *SparsifyParams, origin buildOrigin) (*sessions.Session, bool, error) {
	if s.sessions == nil {
		return nil, false, errNoSession
	}
	key := ""
	if p != nil {
		key = p.sessionKey()
	}
	lookup := func() (*GraphEntry, *sessions.Session, error) {
		entry, err := s.registry.Get(name)
		if err != nil {
			return nil, nil, err
		}
		return entry, s.sessions.Get(name, entry.Hash, key), nil
	}
	entry, sess, err := lookup()
	if err != nil || sess != nil {
		return sess, sess != nil, err
	}
	if p == nil {
		return nil, false, errNoSession
	}
	select {
	case s.maintainSem <- struct{}{}:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	defer func() { <-s.maintainSem }()
	if entry, sess, err = lookup(); err != nil || sess != nil {
		return sess, sess != nil, err
	}
	span := obs.StartSpan(ctx, "session_build")
	m, err := s.maintain(ctx, entry.Graph, *p)
	span.End()
	if err != nil {
		return nil, false, err
	}
	s.metrics.sessionBuilds.With(string(origin)).Inc()
	if sess = s.sessions.Install(name, key, m); sess == nil {
		return nil, false, errors.New("session manager rejected the install (shutting down?)")
	}
	return sess, false, nil
}

// withSession runs fn against the graph's session, reaching it through
// session and starting over — registry lookup included — when the session
// raced away underneath fn: closed between lookup and use, or found stale
// by applySessionBatch because a cold PATCH moved the registry first.
// hit reports whether the session fn last ran against was already
// resident. A race that outlasts the retries is contention on the graph
// and is reported as ErrGraphChanged.
func (s *Server) withSession(ctx context.Context, name string, p *SparsifyParams, origin buildOrigin, fn func(*sessions.Session) error) (hit bool, err error) {
	for attempt := 0; ; attempt++ {
		var sess *sessions.Session
		if sess, hit, err = s.session(ctx, name, p, origin); err != nil {
			return false, err
		}
		err = fn(sess)
		if !errors.Is(err, sessions.ErrSessionGone) && !errors.Is(err, errSessionStale) {
			return hit, err
		}
		if attempt == patchRetries {
			return hit, fmt.Errorf("%w: %v", ErrGraphChanged, err)
		}
	}
}

// isBatchRejection reports whether a maintainer Apply error rejected the
// batch atomically (maintainer unchanged, session still healthy) rather
// than failing mid-maintenance.
func isBatchRejection(err error) bool {
	return errors.Is(err, dynamic.ErrBadUpdate) || errors.Is(err, dynamic.ErrEdgeExists) ||
		errors.Is(err, dynamic.ErrEdgeMissing) || errors.Is(err, dynamic.ErrWouldDisconnect)
}

// sessionApply reports one batch routed through a session.
type sessionApply struct {
	info       graphInfo
	prevHash   string
	stats      sessions.Stats
	sparsEdges int
	evicted    int
}

// applySessionBatch routes one update batch through a live session,
// keeping the registry and the maintainer in lockstep: inside the
// session's single-writer loop the maintainer applies the batch (graph +
// sparsifier together, no reconcile), then the registry entry is
// compare-and-swapped to the maintainer's new graph. Any outcome that
// could leave the two diverged closes the session, so later requests
// miss it instead of serving drifted state.
func (s *Server) applySessionBatch(ctx context.Context, sess *sessions.Session, name string, batch []dynamic.Update) (*sessionApply, error) {
	out := &sessionApply{}
	err := sess.DoMutate(ctx, func(m sessions.Maintainer) (string, error) {
		cur, err := s.registry.Get(name)
		if err != nil {
			return "", fmt.Errorf("%w: %v", errSessionCorrupt, err) // graph deleted under the session
		}
		prevHash := sess.Hash()
		if cur.Hash != prevHash {
			return "", errSessionStale
		}
		// The apply itself runs under Background: once the maintainer
		// passes its commit point a cancellation could strand it half
		// maintained, and batches are bounded so the work is too. The
		// caller's phase trace (if any) still rides along — spans are
		// observability, not cancellation.
		applyCtx := context.Background()
		if tr := obs.FromContext(ctx); tr != nil {
			applyCtx = obs.WithTrace(applyCtx, tr)
		}
		if err := m.Apply(applyCtx, batch); err != nil {
			if isBatchRejection(err) {
				return "", err
			}
			return "", fmt.Errorf("%w: %v", errSessionCorrupt, err)
		}
		updated, err := s.registry.Update(name, prevHash, m.Graph())
		if err != nil {
			return "", fmt.Errorf("%w: %v", errSessionCorrupt, err)
		}
		out.prevHash = prevHash
		out.info = toGraphInfo(updated)
		out.stats = sessions.Snapshot(m)
		out.sparsEdges = m.Sparsifier().M()
		// The registry swap already hashed the new graph; hand it to the
		// session so the manager skips its own O(m) pass.
		return updated.Hash, nil
	})
	if err != nil {
		if errors.Is(err, errSessionStale) || errors.Is(err, errSessionCorrupt) {
			// Close exactly the session that failed; a newer replacement
			// already registered under the name stays untouched.
			sess.Invalidate()
		}
		return nil, err
	}
	out.evicted = s.sweepCache(out.prevHash)
	return out, nil
}

// sweepCache drops the result-cache lines keyed by a content hash a name
// just stopped holding (PATCHed away, or deleted): no lookup for that
// name will ask for them again. The cache is keyed by content, not name,
// so the lines stay while any other name still holds the same graph.
func (s *Server) sweepCache(hash string) int {
	if s.registry.HasHash(hash) {
		return 0
	}
	return s.cache.InvalidateGraph(hash)
}

// runJob is what the queue executes. An incremental job is answered by
// the graph's session — reached, or built and left resident, exactly as
// a stream request would — provided sessions are on and the job's
// submission-time snapshot is still the registry's graph: a job that sat
// queued across a PATCH must neither be served from nor replace the newer
// graph's session. Otherwise the job runs from scratch on its snapshot,
// as it would have without the flag.
func (s *Server) runJob(ctx context.Context, entry *GraphEntry, p SparsifyParams) (*JobResult, error) {
	if p.Incremental && s.sessions != nil {
		if cur, err := s.registry.Get(entry.Name); err == nil && cur.Hash == entry.Hash {
			return s.sessionJob(ctx, entry.Name, p)
		}
	}
	if s.sparsify == nil {
		return nil, ErrNoRunner
	}
	res, err := s.sparsify(ctx, entry.Graph, p)
	if res != nil {
		res.Incremental = p.Incremental
	}
	return res, err
}

// sessionJob snapshots the graph's session into a job result through its
// single-writer loop. On a hit the maintainer's Refilters/Rebuilds are
// lifetime counters across every batch the session ever served, not this
// job's work — the job itself did none — so the per-job fields stay zero
// and the cumulative numbers ride in the Session telemetry; on a miss
// they are the build this job paid for.
func (s *Server) sessionJob(ctx context.Context, name string, p SparsifyParams) (*JobResult, error) {
	var res *JobResult
	hit, err := s.withSession(ctx, name, &p, originJob, func(sess *sessions.Session) error {
		return sess.Do(ctx, func(m sessions.Maintainer) error {
			res = maintainerJobResult(m)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	if hit {
		res.Rounds, res.Refilters, res.Rebuilds = 0, 0, 0
	}
	res.Incremental, res.SessionHit = true, hit
	return res, nil
}

// maintainerJobResult summarizes a live maintainer: its independently
// re-verified per-batch certificate is the job's verified κ.
func maintainerJobResult(m sessions.Maintainer) *JobResult {
	sp := m.Sparsifier()
	st := m.Stats()
	sst := sessions.Snapshot(m)
	return &JobResult{
		EdgesKept:       sp.M(),
		EdgesInput:      m.Graph().M(),
		Density:         float64(sp.M()) / float64(sp.N()),
		Reduction:       float64(m.Graph().M()) / float64(sp.M()),
		SigmaSqAchieved: m.Cond(),
		TargetMet:       m.TargetMet(),
		Rounds:          st.Refilters,
		Connected:       sp.IsConnected(),
		VerifiedCond:    m.Cond(),
		Refilters:       st.Refilters,
		Rebuilds:        st.Rebuilds,
		Session:         &sst,
		Sparsifier:      sp,
	}
}
