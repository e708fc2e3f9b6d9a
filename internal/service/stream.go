package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"graphspar/internal/dynamic"
	"graphspar/internal/obs"
	"graphspar/internal/params"
	"graphspar/internal/sessions"
)

// This file is the service's true-streaming surface: POST
// /v1/graphs/{name}/stream accepts a chunked body of update batches in
// any spelling of the event wire (dynamic.EventReader decodes it; this
// package only negotiates the Content-Type and applies what comes out)
// and applies each one through the graph's persistent session (creating
// it cold on first use), streaming one certificate result line back per
// batch. Unlike PATCH — whose per-request cost was
// the whole point of ROADMAP's "service-side persistent maintainers" —
// a stream of B batches pays one maintainer build and B incremental
// applies, never B reconciles.

// newEventReader negotiates the request's spelling of the event wire
// (internal/dynamic owns the format): the compact binary framing when the
// Content-Type's media type names it (parameters such as charset are
// ignored), otherwise — including no Content-Type at all — text/NDJSON
// lines, which self-discriminate. One batch may carry at most
// maxPatchUpdates updates, the same bound a PATCH body has.
func newEventReader(r *http.Request) *dynamic.EventReader {
	mediaType, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	if strings.TrimSpace(mediaType) == dynamic.BinaryContentType {
		return dynamic.NewBinaryEventReader(r.Body, maxPatchUpdates)
	}
	return dynamic.NewEventReader(r.Body, maxPatchUpdates)
}

// streamParams fills SparsifyParams from the stream endpoint's query
// string (the body carries events, so parameters travel in the URL). A
// key the endpoint does not honour — a job-only parameter such as mode or
// max_edges, or a typo — is rejected rather than silently dropped.
func streamParams(q url.Values) (SparsifyParams, error) {
	var p SparsifyParams
	bad := func(name string, err error) (SparsifyParams, error) {
		return p, fmt.Errorf("%w: query parameter %q: %v", params.ErrInvalid, name, err)
	}
	var unknown []string
	for k := range q {
		switch k {
		case "sigma2", "t", "r", "shards", "workers", "seed", "tree", "partition", "trace":
		default:
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return p, fmt.Errorf("%w: unknown query parameter %q", params.ErrInvalid, strings.Join(unknown, ", "))
	}
	if v := q.Get("sigma2"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return bad("sigma2", err)
		}
		p.SigmaSq = f
	}
	for _, it := range []struct {
		name string
		dst  *int
	}{{"t", &p.T}, {"r", &p.NumVectors}, {"shards", &p.Shards}, {"workers", &p.Workers}} {
		if v := q.Get(it.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return bad(it.name, err)
			}
			*it.dst = n
		}
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return bad("seed", err)
		}
		p.Seed = n
	}
	p.TreeAlg = q.Get("tree")
	p.Partition = q.Get("partition")
	if err := p.Canon(); err != nil {
		return p, err
	}
	return p, nil
}

// Session-consistency sentinels. Stale means the registry moved without
// the session (a cold PATCH won a race); corrupt means the maintainer
// mutated past its commit point but the registry swap failed, so the
// session can no longer be trusted. Both close the session; stale is
// retryable, corrupt surfaces as a 500.
var (
	errSessionStale   = errors.New("service: session is stale against the registry")
	errSessionCorrupt = errors.New("service: session diverged from the registry")
)

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
// fall back to the cold path instead of serving drifted state.
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
	if s.cache != nil && out.info.Hash != out.prevHash {
		out.evicted = s.cache.InvalidateGraph(out.prevHash)
	}
	return out, nil
}

// streamLine is one NDJSON response line: a per-batch certificate result
// (Batch > 0) or the terminal summary (Done true).
type streamLine struct {
	Batch           int             `json:"batch,omitempty"`
	Updates         int             `json:"updates,omitempty"`
	Applied         bool            `json:"applied,omitempty"`
	Rejected        bool            `json:"rejected,omitempty"`
	Error           string          `json:"error,omitempty"`
	Hash            string          `json:"hash,omitempty"`
	GraphEdges      int             `json:"m,omitempty"`
	SparsifierEdges int             `json:"sparsifier_edges,omitempty"`
	Cond            float64         `json:"condition_number,omitempty"`
	TargetMet       bool            `json:"target_met,omitempty"`
	Session         string          `json:"session,omitempty"` // hit | cold
	DurationMs      float64         `json:"duration_ms,omitempty"`
	CacheEvicted    int             `json:"cache_entries_evicted,omitempty"`
	Done            bool            `json:"done,omitempty"`
	Batches         int             `json:"batches,omitempty"`
	AppliedTotal    int             `json:"applied_total,omitempty"`
	RejectedTotal   int             `json:"rejected_total,omitempty"`
	Graph           *graphInfo      `json:"graph,omitempty"`
	SessionStats    *sessions.Stats `json:"session_stats,omitempty"`
	// Phases is this batch's maintenance breakdown (settle, refilter,
	// embed, verify; plus the build phases on a cold first batch). Only
	// populated with ?trace=1.
	Phases []PhaseMs `json:"phases,omitempty"`

	fatal        bool // stop reading the request body after this line
	sessionStats sessions.Stats
}

// handleStreamEvents is POST /v1/graphs/{name}/stream: chunked ingestion
// of update batches through the graph's persistent session, one result
// line streamed back per batch plus a terminal summary. Parameters ride
// the query string (sigma2 required, plus t/r/tree/seed/shards/workers/
// partition as for jobs). Rejected batches (validation, bridge deletes)
// report and the stream continues; decode errors and internal failures
// terminate it.
func (s *Server) handleStreamEvents(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.sessions == nil || s.maintain == nil {
		writeErr(w, http.StatusNotImplemented,
			errors.New("streaming sessions are disabled on this server (no maintainer runner or -session-max 0)"))
		return
	}
	p, err := streamParams(r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if _, err := s.registry.Get(name); err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	// Admission: a stream holds a session (and possibly a cold maintainer
	// build) for its whole life, so the watermark counts whole requests.
	release, ok := s.admission.acquireStream()
	if !ok {
		s.admission.shed(w, true)
		return
	}
	defer release()

	// Result lines are flushed while the (possibly chunked) request body
	// is still streaming in; HTTP/1.x needs full duplex opted in or the
	// server aborts body reads after the first write.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex() // best-effort: HTTP/2 is duplex already
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := func() { _ = rc.Flush() }
	emit := func(line streamLine) {
		_ = enc.Encode(line)
		flush()
	}

	trace := r.URL.Query().Get("trace") == "1"
	key := p.sessionKey()
	dec := newEventReader(r)
	var batches, applied, rejected int
	var lastStats *sessions.Stats
	for {
		batch, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			emit(streamLine{Error: err.Error()})
			break
		}
		batches++
		// Each batch gets its own trace, so the per-line Phases are that
		// batch's work alone.
		ctx := r.Context()
		var tr *obs.Trace
		if trace {
			tr = obs.NewTrace()
			ctx = obs.WithTrace(ctx, tr)
		}
		t0 := time.Now()
		line := s.streamApply(ctx, name, key, p, batch)
		line.Batch = batches
		line.Updates = len(batch)
		outcome := batchFailed
		switch {
		case line.Applied:
			outcome = batchApplied
			applied++
			st := line.sessionStats
			lastStats = &st
		case line.Rejected:
			outcome = batchRejected
			rejected++
		}
		s.metrics.observeStreamBatch(outcome, time.Since(t0))
		if tr != nil {
			line.Phases = toPhaseMs(tr.Phases())
		}
		emit(line)
		if line.fatal {
			break
		}
	}
	sum := streamLine{Done: true, Batches: batches, AppliedTotal: applied, RejectedTotal: rejected, SessionStats: lastStats}
	if entry, err := s.registry.Get(name); err == nil {
		gi := toGraphInfo(entry)
		sum.Graph = &gi
	}
	emit(sum)
}

// streamApply applies one decoded batch through the graph's session,
// acquiring or cold-building it as needed, with a bounded retry when the
// session raced a cold PATCH.
func (s *Server) streamApply(ctx context.Context, name, key string, p SparsifyParams, batch []dynamic.Update) streamLine {
	fatal := func(err error) streamLine {
		return streamLine{Error: err.Error(), fatal: true}
	}
	const retries = 3
	for attempt := 0; ; attempt++ {
		entry, err := s.registry.Get(name)
		if err != nil {
			return fatal(err)
		}
		state := "hit"
		sess := s.sessions.Get(name, entry.Hash, key)
		if sess == nil {
			// Cold path: build a live maintainer for the current graph and
			// make it resident. The build is a full sparsification, so it
			// takes a slot from the same bound the job workers share, and
			// the session is re-checked after the wait — a racing stream
			// request may have built it for us while we queued.
			select {
			case s.maintainSem <- struct{}{}:
			case <-ctx.Done():
				return fatal(ctx.Err())
			}
			if sess = s.sessions.Get(name, entry.Hash, key); sess == nil {
				m, err := s.maintain(ctx, entry.Graph, p)
				if err != nil {
					<-s.maintainSem
					return fatal(err)
				}
				sess = s.sessions.Install(name, key, m)
				if sess == nil {
					<-s.maintainSem
					return fatal(errors.New("session manager rejected the install (shutting down?)"))
				}
				state = "cold"
			}
			<-s.maintainSem
		}
		t0 := time.Now()
		res, err := s.applySessionBatch(ctx, sess, name, batch)
		switch {
		case err == nil:
			return streamLine{
				Applied:         true,
				Hash:            res.info.Hash,
				GraphEdges:      res.info.M,
				SparsifierEdges: res.sparsEdges,
				Cond:            res.stats.Cond,
				TargetMet:       res.stats.TargetMet,
				Session:         state,
				DurationMs:      float64(time.Since(t0).Microseconds()) / 1000,
				CacheEvicted:    res.evicted,
				sessionStats:    res.stats,
			}
		case errors.Is(err, sessions.ErrSessionGone), errors.Is(err, errSessionStale):
			if attempt < retries {
				continue
			}
			return fatal(err)
		case isBatchRejection(err):
			return streamLine{Rejected: true, Error: err.Error(), Session: state}
		default:
			return fatal(err)
		}
	}
}
