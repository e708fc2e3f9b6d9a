package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"graphspar/internal/dynamic"
	"graphspar/internal/obs"
	"graphspar/internal/sessions"
)

type patchRequest struct {
	Updates []dynamic.EventJSON `json:"updates"`
}

type patchResponse struct {
	graphInfo
	Applied  int    `json:"applied"`
	PrevHash string `json:"prev_hash"`
	Evicted  int    `json:"cache_entries_evicted"`
	// Session reports how the batch was routed: "hit" went through the
	// graph's resident maintainer (graph and sparsifier mutated in one
	// step), "miss" took the cold graph-only path, "disabled" means the
	// server runs without persistent sessions. SessionStats carries the
	// session telemetry after a hit.
	Session      string          `json:"session"`
	SessionStats *sessions.Stats `json:"session_stats,omitempty"`
	// Phases is the maintainer's per-phase breakdown of this batch
	// (settle, refilter, embed, verify). Only populated on a session hit
	// with ?trace=1 — the cold path mutates the graph without running any
	// pipeline phase.
	Phases []PhaseMs `json:"phases,omitempty"`
}

// maxPatchUpdates bounds one PATCH body; larger reshapes should stream.
const maxPatchUpdates = 100_000

// handlePatchEdges applies a batch of edge mutations to a registered
// graph: PATCH /v1/graphs/{name}/edges. The batch is atomic — any invalid
// update, or a result that would be disconnected, rejects the whole batch
// and the stored graph is unchanged. When the graph has a live session
// (installed by a prior incremental job or stream request), the batch is
// routed through it: the maintainer applies the updates to graph and
// sparsifier together inside the session's single-writer loop, so the
// next incremental job needs no reconcile at all. Otherwise the graph is
// mutated cold, re-hashed under its name, and result-cache entries keyed
// by the old content hash are dropped. Jobs submitted afterwards see the
// mutated graph; pass {"incremental": true} to serve them from the
// session (or warm-start them from a prior job's sparsifier).
func (s *Server) handlePatchEdges(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req patchRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return
	}
	if len(req.Updates) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("updates is required and must be non-empty"))
		return
	}
	if len(req.Updates) > maxPatchUpdates {
		writeErr(w, http.StatusUnprocessableEntity,
			fmt.Errorf("batch of %d updates exceeds the %d limit; stream it in chunks through POST /v1/graphs/%s/stream instead",
				len(req.Updates), maxPatchUpdates, name))
		return
	}
	batch := make([]dynamic.Update, len(req.Updates))
	for i, ev := range req.Updates {
		u, err := ev.Update()
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("update %d: %w", i, err))
			return
		}
		batch[i] = u
	}
	// Apply-and-swap loop: the registry Update is a compare-and-set on the
	// content hash, so a concurrent PATCH to the same graph makes this one
	// re-read the winner's graph and re-apply its own batch rather than
	// silently clobbering the other's mutations. Persistent contention
	// (or a batch invalidated by the concurrent change, e.g. its delete
	// target is gone) surfaces as the batch-validation error against the
	// latest graph. A warm session, when present and in lockstep with the
	// registry, takes the batch instead — its actor loop serializes
	// writers, and a session gone stale mid-flight re-enters this loop as
	// a cold retry.
	// ?trace=1 opts into the per-batch phase breakdown; spans from every
	// retry attempt accumulate into the same trace, so a batch that raced
	// a session away still shows the work it caused.
	ctx := r.Context()
	var tr *obs.Trace
	if r.URL.Query().Get("trace") == "1" {
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
	}
	const patchRetries = 4
	for attempt := 0; ; attempt++ {
		entry, err := s.registry.Get(name)
		if err != nil {
			writeErr(w, errStatus(err), err)
			return
		}

		if s.sessions != nil {
			if sess := s.sessions.Get(name, entry.Hash, ""); sess != nil {
				res, err := s.applySessionBatch(ctx, sess, name, batch)
				switch {
				case err == nil:
					resp := patchResponse{
						graphInfo:    res.info,
						Applied:      len(batch),
						PrevHash:     res.prevHash,
						Evicted:      res.evicted,
						Session:      "hit",
						SessionStats: &res.stats,
					}
					if tr != nil {
						resp.Phases = toPhaseMs(tr.Phases())
					}
					writeJSON(w, http.StatusOK, resp)
					return
				case errors.Is(err, sessions.ErrSessionGone), errors.Is(err, errSessionStale):
					if attempt < patchRetries {
						continue // session raced away; retry (cold now)
					}
				case isBatchRejection(err):
					// The maintainer rejected the batch atomically; report
					// exactly like the cold path would have.
					writeErr(w, errStatus(err), err)
					return
				default:
					writeErr(w, errStatus(err), err)
					return
				}
			}
		}

		mutated, err := dynamic.ApplyToGraph(entry.Graph, batch)
		if err != nil {
			writeErr(w, errStatus(err), err)
			return
		}
		prevHash := entry.Hash
		updated, err := s.registry.Update(name, prevHash, mutated)
		if errors.Is(err, ErrGraphChanged) && attempt < patchRetries {
			continue
		}
		if err != nil {
			writeErr(w, errStatus(err), err)
			return
		}
		evicted := 0
		if s.cache != nil && updated.Hash != prevHash {
			evicted = s.cache.InvalidateGraph(prevHash)
		}
		session := "disabled"
		if s.sessions != nil {
			session = "miss"
			// This cold swap is now the registry truth: any resident
			// session not already at the new hash is definitively stale.
			s.sessions.InvalidateStale(name, updated.Hash)
		}
		writeJSON(w, http.StatusOK, patchResponse{
			graphInfo: toGraphInfo(updated),
			Applied:   len(batch),
			PrevHash:  prevHash,
			Evicted:   evicted,
			Session:   session,
		})
		return
	}
}
