package cluster

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/session"
	"repro/internal/wire"
)

// Handoff moves one session between backends by shipping it:
//
//  1. export-state: the source freezes the session (draining it — further
//     inputs get 503 there) and returns its ship image, one opaque binary
//     record holding the state image and a sha-256 digest of the log,
//  2. install: the target decodes those bytes, restores the session,
//     recomputes the digest from the restored log and refuses on mismatch,
//     and logs an install record to its own WAL before the session goes live,
//  3. retire: the source forgets its copy (logged, so WAL replay does not
//     resurrect it), and the ring pins the session to the target.
//
// A Spocus run's state is its cumulated inputs and its log is the
// semantically significant object, so state image + log is the session: the
// move costs O(state + log) in one round trip per side, whatever number of
// steps produced it, and the digest check pins the byte-identity of the log
// end to end. The freeze makes the move exactly-once at the log level: no
// input can land on both copies. On any failure before retire the target
// copy is deleted and the source is unfrozen — the session never stops
// being served by exactly one owner.

// HandoffResult reports a completed handoff.
type HandoffResult struct {
	Session string `json:"session"`
	From    string `json:"from"`
	To      string `json:"to"`
	Steps   int    `json:"steps"`
}

// handleHandoff serves POST /admin/handoff?session=ID&to=BACKEND.
func (rt *Router) handleHandoff(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("session")
	to := r.URL.Query().Get("to")
	if id == "" || to == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "handoff needs ?session= and ?to="})
		return
	}
	res, err := rt.Handoff(id, to)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// lockSession serializes handoffs per session ID. Without it, two
// concurrent handoffs of the same session to different targets both
// export (freeze is idempotent) and both install; the loser's Forget finds
// the source already retired, but its installed copy would survive as a
// live, unfrozen orphan replica on its target. Serialized, the second
// handoff's Lookup sees the first one's pin and either no-ops or performs
// a clean second move from the new owner.
func (rt *Router) lockSession(id string) (unlock func()) {
	for {
		rt.handoffMu.Lock()
		busy, inFlight := rt.handoffBusy[id]
		if !inFlight {
			done := make(chan struct{})
			rt.handoffBusy[id] = done
			rt.handoffMu.Unlock()
			return func() {
				rt.handoffMu.Lock()
				delete(rt.handoffBusy, id)
				rt.handoffMu.Unlock()
				close(done)
			}
		}
		rt.handoffMu.Unlock()
		<-busy
	}
}

// Handoff drains session id on its current owner, ships it to backend to,
// and flips the ring entry. Handing a session to the backend that already
// owns it is a no-op. Handoffs of the same session are serialized; a
// concurrent caller blocks until the first move completes, then acts on the
// post-move owner.
func (rt *Router) Handoff(id, to string) (*HandoffResult, error) {
	defer rt.lockSession(id)()
	known := false
	for _, m := range rt.ring.Members() {
		if m == to {
			known = true
			break
		}
	}
	if !known {
		return nil, fmt.Errorf("handoff: unknown backend %s", to)
	}
	if !rt.ring.Up(to) {
		return nil, &BackendDownError{Addr: to}
	}
	from, err := rt.ring.Lookup(id)
	if err != nil {
		return nil, fmt.Errorf("handoff: %w", err)
	}
	res := &HandoffResult{Session: id, From: from, To: to}
	if from == to {
		return res, nil
	}

	// Ship the session (freezing the source as a side effect of the export).
	// Whatever stops the ship — source unreachable, digest refused, an ID the
	// target already holds — rolls back to the source as sole owner.
	if res.Steps, err = rt.ship(from, to, id); err != nil {
		return nil, rt.rollback(from, to, id, fmt.Errorf("ship: %w", err))
	}

	// The health checker may have marked the target down while the move was
	// in flight (its prober and our transfer race freely). Pinning the
	// session to a down backend after forgetting the source would strand
	// it — and if the target really died, lose it — so re-check before the
	// point of no return and roll the move back instead.
	if !rt.ring.Up(to) {
		return nil, rt.rollback(from, to, id, fmt.Errorf("target went down mid-handoff: %w", &BackendDownError{Addr: to}))
	}

	// Retire the source copy and flip the ring.
	ferr := rt.postJSON(from+"/admin/sessions/"+id+"/forget", nil, nil)
	if wire.IsStatus(ferr, http.StatusNotFound) {
		// The session vanished from the source under our freeze — someone
		// else retired it. Our moved copy would be a second live replica, so
		// delete it and leave the ring alone.
		rt.deleteSession(to, id)
		return nil, fmt.Errorf("handoff: session %s disappeared from %s mid-handoff (replica on %s deleted): %w", id, from, to, ferr)
	}
	rt.ring.Pin(id, to)
	rt.m.handoffs.Add(1)
	if ferr != nil {
		// The target already serves the session; routing there anyway is
		// correct, the frozen source copy is inert. Report but proceed.
		return res, fmt.Errorf("handoff: forget on %s: %w (ring flipped; frozen source copy remains)", from, ferr)
	}
	return res, nil
}

// rollback undoes a handoff that failed before the source was retired: the
// target's copy is deleted, the source thawed, the ring left alone. It
// returns the error to report, which names the cause and what was restored.
func (rt *Router) rollback(from, to, id string, cause error) error {
	rt.deleteSession(to, id)
	if uerr := rt.postJSON(from+"/admin/sessions/"+id+"/unfreeze", nil, nil); uerr != nil && !wire.IsStatus(uerr, http.StatusNotFound) {
		return fmt.Errorf("handoff to %s: %w AND unfreeze on %s failed (%v): session %s needs manual thaw", to, cause, from, uerr, id)
	}
	return fmt.Errorf("handoff to %s: %w (source unfrozen)", to, cause)
}

// ship moves the session in one round trip per side: export-state on the
// source (freeze + ship image), install on the target (restore + digest
// verification + an install WAL record). The router never decodes the image,
// it just moves bytes: the target decodes what the source encoded and
// verifies the log digest before the session goes live. Returns the shipped
// session's step count.
func (rt *Router) ship(from, to, id string) (int, error) {
	image, err := rt.client.PostRaw(context.Background(), from+"/admin/sessions/"+id+"/export-state", "", nil)
	if err != nil {
		return 0, fmt.Errorf("export-state from %s: %w", from, err)
	}
	// Install can hit the same bound on callers waiting for a shard's lock
	// as any open, so retry 429s.
	var info session.Info
	if err := rt.client.PostBytesRetry(context.Background(), to+"/admin/install", "application/octet-stream", image, &info, nil); err != nil {
		return 0, fmt.Errorf("install on %s: %w", to, err)
	}
	return info.Steps, nil
}

// deleteSession best-effort removes the target's copy of a session whose
// handoff is being rolled back.
func (rt *Router) deleteSession(addr, id string) {
	req, err := http.NewRequest(http.MethodDelete, addr+"/sessions/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := rt.client.Do(req); err == nil {
		resp.Body.Close()
	}
}

// postJSON posts body (nil for empty) to url and decodes the 2xx response
// into out (when non-nil). Non-2xx → *wire.StatusError carrying the
// backend's error message.
func (rt *Router) postJSON(url string, body any, out any) error {
	return rt.client.PostJSON(context.Background(), url, body, out, nil)
}
