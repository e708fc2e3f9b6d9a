package service

import (
	"errors"
	"fmt"
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
// and the stored graph is unchanged. The route is withSession's: when the
// graph has a resident session in lockstep with the registry (left there
// by a stream request or an incremental job), the maintainer applies the
// batch to graph and sparsifier together inside the session's
// single-writer loop, and the next incremental job is a hit. A PATCH
// carries no sparsification parameters, so it never builds a session: on
// a miss only the graph is mutated, re-hashed under its name, and the
// result-cache lines of the content hash it left are swept. Jobs submitted
// afterwards see the mutated graph; {"incremental": true} answers them
// from the session, building it once if none is resident.
func (s *Server) handlePatchEdges(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req patchRequest
	if err := decodeBody(r, 16<<20, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
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
	// ?trace=1 opts into the per-batch phase breakdown; spans from every
	// retry attempt accumulate into the same trace, so a batch that raced
	// a session away still shows the work it caused.
	ctx := r.Context()
	var tr *obs.Trace
	if r.URL.Query().Get("trace") == "1" {
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
	}
	// The registry Update below is a compare-and-set on the content hash,
	// so a concurrent change to the same graph — another cold PATCH, or a
	// session installed and advanced meanwhile — makes this one start over
	// from the session lookup rather than clobber the other's mutations.
	// Persistent contention (or a batch the concurrent change invalidated,
	// e.g. its delete target is gone) surfaces as the error against the
	// latest graph.
	for attempt := 0; ; attempt++ {
		var res *sessionApply
		_, err := s.withSession(ctx, name, nil, "", func(sess *sessions.Session) (err error) {
			res, err = s.applySessionBatch(ctx, sess, name, batch)
			return err
		})
		if err == nil {
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
		}
		if !errors.Is(err, errNoSession) {
			// A batch the maintainer rejected atomically reports exactly
			// like the cold path would have.
			writeErr(w, errStatus(err), err)
			return
		}

		entry, err := s.registry.Get(name)
		if err != nil {
			writeErr(w, errStatus(err), err)
			return
		}
		mutated, err := dynamic.ApplyToGraph(entry.Graph, batch)
		if err != nil {
			writeErr(w, errStatus(err), err)
			return
		}
		updated, err := s.registry.Update(name, entry.Hash, mutated)
		if errors.Is(err, ErrGraphChanged) && attempt < patchRetries {
			continue
		}
		if err != nil {
			writeErr(w, errStatus(err), err)
			return
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
			PrevHash:  entry.Hash,
			Evicted:   s.sweepCache(entry.Hash),
			Session:   session,
		})
		return
	}
}
