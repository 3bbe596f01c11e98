package session

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/live"
)

// The verification endpoints of the live plane:
//
//	GET /sessions/{id}/verify?goal=deliver(X)           goal reachability from the session's current state
//	GET /sessions/{id}/verify?temporal=deliver(X)%20=>%20past-order(X)   temporal check (repeatable parameter)
//	GET /sessions/{id}/progress?goal=deliver(X)&limit=5 ranked next-input suggestions toward the goal
//
// Each request snapshots the session between steps (Peek) and hands the
// snapshot to the live.Service, which memoizes answers and applies
// admission control; saturation surfaces as 429 + Retry-After, a per-query
// deadline as 504. Network sessions are verified one member at a time:
// ?node=<name> selects the member, and is required (400 otherwise).

// liveSourceFor selects the verifiable machine inside a view: the session
// itself, or — for a network session — the member named by ?node=.
func liveSourceFor(view *View, node string) (live.Source, error) {
	if view.Nodes == nil {
		if node != "" {
			return live.Source{}, errors.New("?node= applies only to network sessions")
		}
		return live.Source{Model: view.Model, Src: view.Src, DB: view.DB, Past: view.Past}, nil
	}
	if node == "" {
		return live.Source{}, errors.New("network session: ?node= is required")
	}
	nv, ok := view.Nodes[node]
	if !ok {
		return live.Source{}, fmt.Errorf("network session has no node %q", node)
	}
	return live.Source{Model: nv.Model, Src: nv.Src, DB: nv.DB, Past: nv.Past}, nil
}

func handleVerify(e *Engine, lv *live.Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		view, err := e.Peek(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		src, err := liveSourceFor(view, r.URL.Query().Get("node"))
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		goal := r.URL.Query().Get("goal")
		conds := r.URL.Query()["temporal"]
		switch {
		case goal != "" && len(conds) == 0:
			a, err := lv.Goal(r.Context(), src, goal)
			if err != nil {
				writeVerifyErr(w, err)
				return
			}
			WriteJSON(w, http.StatusOK, a)
		case goal == "" && len(conds) > 0:
			a, err := lv.Temporal(r.Context(), src, conds)
			if err != nil {
				writeVerifyErr(w, err)
				return
			}
			WriteJSON(w, http.StatusOK, a)
		default:
			WriteJSON(w, http.StatusBadRequest, map[string]string{
				"error": "exactly one of ?goal= or ?temporal= (repeatable) is required",
			})
		}
	}
}

func handleProgress(e *Engine, lv *live.Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		view, err := e.Peek(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		goal := r.URL.Query().Get("goal")
		if goal == "" {
			WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "?goal= is required"})
			return
		}
		src, err := liveSourceFor(view, r.URL.Query().Get("node"))
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		a, err := lv.Progress(r.Context(), src, goal)
		if err != nil {
			writeVerifyErr(w, err)
			return
		}
		if limit := r.URL.Query().Get("limit"); limit != "" {
			n, err := strconv.Atoi(limit)
			if err != nil || n < 0 {
				WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "?limit= must be a non-negative integer"})
				return
			}
			if n < len(a.Suggestions) {
				// The answer is shared with the cache: truncate a copy.
				trimmed := *a
				trimmed.Suggestions = a.Suggestions[:n]
				trimmed.Truncated = true
				a = &trimmed
			}
		}
		WriteJSON(w, http.StatusOK, a)
	}
}

// writeVerifyErr maps live-plane errors onto HTTP statuses — malformed
// query → 400, saturated verification pool → 429 (Retry-After), per-query
// deadline exceeded → 504 — and defers anything else to the engine mapping.
func writeVerifyErr(w http.ResponseWriter, err error) {
	var bad *live.BadQueryError
	var over *live.OverloadedError
	switch {
	case errors.As(err, &bad):
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	case errors.As(err, &over):
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		WriteJSON(w, http.StatusGatewayTimeout, map[string]string{"error": "verification query deadline exceeded"})
	default:
		writeErr(w, err)
	}
}
