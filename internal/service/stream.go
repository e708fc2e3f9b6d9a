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
		case "sigma2", "t", "r", "shards", "workers", "seed", "trace":
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
	if err := p.Canon(); err != nil {
		return p, err
	}
	return p, nil
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
// the query string (sigma2 required, plus t/r/tree/seed/shards/workers
// as for jobs). Rejected batches (validation, bridge deletes)
// report and the stream continues; decode errors and internal failures
// terminate it.
func (s *Server) handleStreamEvents(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.sessions == nil {
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
		line := s.streamApply(ctx, name, p, batch)
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

// streamApply applies one decoded batch through the graph's session —
// built on first use, which is what "cold" on a result line means — and
// encodes the outcome as that batch's line.
func (s *Server) streamApply(ctx context.Context, name string, p SparsifyParams, batch []dynamic.Update) streamLine {
	var res *sessionApply
	var t0 time.Time
	hit, err := s.withSession(ctx, name, &p, originStream, func(sess *sessions.Session) (err error) {
		t0 = time.Now()
		res, err = s.applySessionBatch(ctx, sess, name, batch)
		return err
	})
	state := "cold"
	if hit {
		state = "hit"
	}
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
	case isBatchRejection(err):
		return streamLine{Rejected: true, Error: err.Error(), Session: state}
	default:
		return streamLine{Error: err.Error(), fatal: true}
	}
}
