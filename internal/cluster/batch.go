package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/jsonread"
	"repro/internal/session"
)

// The router side of the batched data plane. POST /batch arrives as one
// multi-session envelope; the router splits it by ring owner, fans out one
// pipelined sub-batch per backend over the shared wire client, and merges
// the per-item statuses back into request order. Failure stays per item:
// an unroutable session is its item's 503, a dead backend is its
// sub-batch's 502 — neighbors on healthy backends still commit.
//
// The split is zero-copy on the payload: one pass over the client's body
// reads the routing fields (session, key) and the byte span of each item,
// each backend's body is spliced from those spans, and each backend's
// per-item answers travel back as the bytes it sent — the router never
// materializes a relation instance or a step result.

// routedItem is one step of a client's batch as the router reads it: the
// routing fields, and the span of the item's object in the client's body.
// An item that a repeated "steps" key decoded more than once has one span
// per object, in decode order; more holds all but the first. A null item
// has none (span.end is 0).
type routedItem struct {
	session, key string
	span         span
	more         []span
}

type span struct{ start, end int }

// subBatch is the slice of one incoming batch owned by a single backend:
// its items' positions in the client's envelope, so the merged response
// stays positional, and the body spliced for the backend. In errors mode
// the sub-batch accumulates its remapped failures in failed instead of
// scattering into the positional results (each goroutine owns its own
// subBatch, so no lock).
type subBatch struct {
	addr      string
	first     string // the session of the first item: re-resolved on retry
	positions []int
	allKeyed  bool
	body      []byte
	failed    []session.BatchFailure
}

// rawStatus renders a router-side per-item failure in the backend's
// BatchItemStatus shape.
func rawStatus(status int, msg string) []byte {
	b, _ := json.Marshal(session.BatchItemStatus{Status: status, Error: msg})
	return b
}

// scanBatch reads a client's POST /batch envelope in one pass and
// validates all of it, inputs included as JSON values. It yields what
// encoding/json's Decoder yields for the routing fields, repeated and
// case-folded keys included (see session.DecodeBatch), and never
// reads past the envelope.
func scanBatch(b []byte) (items []routedItem, mode string, err error) {
	var r jsonread.Reader
	r.Reset(b)
	if r.Null() || !r.Open('{') {
		return nil, "", r.Err()
	}
	for n := 0; r.More(n, '}'); n++ {
		switch k := r.Key(); {
		case jsonread.Match(k, "steps"):
			items = jsonread.Slice(&r, items, scanItem)
		case jsonread.Match(k, "results"):
			if !r.Null() {
				mode = r.Str()
			}
		default:
			r.Skip()
		}
	}
	return items, mode, r.Err()
}

// scanItem reads one item object over it, adding the object's span.
func scanItem(r *jsonread.Reader, it *routedItem) {
	if r.Null() {
		return
	}
	r.Peek()
	start := r.Off()
	if !r.Open('{') {
		return
	}
	for n := 0; r.More(n, '}'); n++ {
		switch k := r.Key(); {
		case jsonread.Match(k, "session"):
			if !r.Null() {
				it.session = r.Str()
			}
		case jsonread.Match(k, "key"):
			if !r.Null() {
				it.key = r.Str()
			}
		default: // "input" included: it travels as the client's bytes
			r.Skip()
		}
	}
	if sp := (span{start, r.Off()}); it.span.end == 0 {
		it.span = sp
	} else {
		it.more = append(it.more, sp)
	}
}

// appendItem appends the item's object to dst. An item read from several
// objects becomes one object holding all their members in order, which
// the backend decodes to the same item.
func appendItem(dst, body []byte, it *routedItem) []byte {
	switch {
	case it.span.end == 0:
		return append(dst, "{}"...)
	case it.more == nil:
		return append(dst, body[it.span.start:it.span.end]...)
	}
	dst = append(dst, '{')
	members := 0
	for _, sp := range append([]span{it.span}, it.more...) {
		inner := bytes.TrimSpace(body[sp.start+1 : sp.end-1])
		if len(inner) == 0 {
			continue
		}
		if members++; members > 1 {
			dst = append(dst, ',')
		}
		dst = append(dst, inner...)
	}
	return append(dst, '}')
}

// spliceBatch builds a backend's /batch body from the client's item bytes.
func spliceBatch(body []byte, items []routedItem, positions []int, mode string) []byte {
	n := len(`{"steps":[],"results":""}`) + len(mode)
	for _, pos := range positions {
		n += items[pos].span.end - items[pos].span.start + 1
	}
	dst := append(make([]byte, 0, n), `{"steps":[`...)
	for i, pos := range positions {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendItem(dst, body, &items[pos])
	}
	dst = append(dst, ']')
	if mode != "" {
		dst = append(append(append(dst, `,"results":"`...), mode...), '"')
	}
	return append(dst, '}')
}

// backendAnswer is a backend's /batch response as the router reads it: in
// the positional modes each item's status object, left as the bytes the
// backend sent, with its status read; in errors mode the count and the
// failures.
type backendAnswer struct {
	results []answer
	n       int
	failed  []session.BatchFailure
}

type answer struct {
	raw    []byte
	status int
}

func readAnswer(b []byte) (backendAnswer, error) {
	var a backendAnswer
	var r jsonread.Reader
	r.Reset(b)
	if r.Null() || !r.Open('{') {
		return a, r.Err()
	}
	for n := 0; r.More(n, '}'); n++ {
		switch k := r.Key(); {
		case jsonread.Match(k, "results"):
			a.results = jsonread.Slice(&r, a.results, func(r *jsonread.Reader, res *answer) {
				r.Peek()
				start := r.Off()
				var f session.BatchFailure
				readFailure(r, &f)
				res.raw, res.status = b[start:r.Off()], f.Status
			})
		case jsonread.Match(k, "n"):
			if !r.Null() {
				a.n = r.Int()
			}
		case jsonread.Match(k, "failed"):
			a.failed = jsonread.Slice(&r, a.failed, readFailure)
		default:
			r.Skip()
		}
	}
	return a, r.Err()
}

// readFailure reads the pos, status and error fields of one answer object
// over f, skipping the rest (a step result, in a positional answer).
func readFailure(r *jsonread.Reader, f *session.BatchFailure) {
	if r.Peek() != '{' {
		r.Skip()
		return
	}
	r.Open('{')
	for n := 0; r.More(n, '}'); n++ {
		switch k := r.Key(); {
		case r.Null():
		case jsonread.Match(k, "pos"):
			f.Pos = r.Int()
		case jsonread.Match(k, "status"):
			f.Status = r.Int()
		case jsonread.Match(k, "error"):
			f.Error = r.Str()
		default:
			r.Skip()
		}
	}
}

// handleBatch serves POST /batch on the router.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	buf := session.ReadBody(w, r, 16<<20)
	if buf == nil {
		return
	}
	defer session.ReleaseBody(buf)
	body := buf.Bytes()
	items, mode, err := scanBatch(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	if len(items) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "batch needs at least one step"})
		return
	}
	switch mode {
	case "", "full", "status", "errors":
	default:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "results must be \"full\", \"status\" or \"errors\""})
		return
	}
	rt.m.batchRequests.Add(1)
	rt.m.batchSteps.Add(int64(len(items)))
	rt.client.ObserveBatch(len(items))

	sparse := mode == "errors"
	var results [][]byte
	if !sparse {
		results = make([][]byte, len(items))
	}
	var preFailed []session.BatchFailure

	// Split by owner, preserving first-occurrence backend order and the
	// client's item order within each sub-batch (one session's items stay
	// in order, so its WAL group is the client's order).
	groups := make(map[string]*subBatch)
	var order []string
	for i := range items {
		it := &items[i]
		addr, err := rt.ring.Lookup(it.session)
		if err != nil {
			rt.m.unroutable.Add(1)
			if sparse {
				preFailed = append(preFailed, session.BatchFailure{Pos: i, Status: http.StatusServiceUnavailable, Error: err.Error()})
			} else {
				results[i] = rawStatus(http.StatusServiceUnavailable, err.Error())
			}
			continue
		}
		g, ok := groups[addr]
		if !ok {
			g = &subBatch{addr: addr, first: it.session, allKeyed: true}
			groups[addr] = g
			order = append(order, addr)
		}
		g.positions = append(g.positions, i)
		if it.key == "" {
			g.allKeyed = false
		}
	}

	// Fan out: one pipelined upstream request per backend, all in flight
	// at once. Each sub-batch fills only its own positions.
	var wg sync.WaitGroup
	for _, addr := range order {
		g := groups[addr]
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.body = spliceBatch(body, items, g.positions, mode)
			rt.forwardSubBatch(r, g, mode, results)
		}()
	}
	wg.Wait()
	// Compact: the merged envelope is hot-path payload, not debug output.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if sparse {
		failed := preFailed
		for _, addr := range order {
			failed = append(failed, groups[addr].failed...)
		}
		json.NewEncoder(w).Encode(session.BatchResponse{N: len(items), Failed: failed})
		return
	}
	// Each result is one compact JSON object as its backend (or rawStatus)
	// encoded it, so the merged envelope is their concatenation.
	n := len("{\"results\":[]}\n") + len(results)
	for _, res := range results {
		n += len(res)
	}
	out := append(make([]byte, 0, n), `{"results":[`...)
	for i, res := range results {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, res...)
	}
	w.Write(append(out, "]}\n"...))
}

// forwardSubBatch sends one backend's slice of the batch and scatters the
// per-item statuses into results. A transport failure marks the backend
// down; like single-step forward, it is retried transparently only when
// re-sending is safe — here, when EVERY item carries an idempotency key
// (the backend answers duplicates from its key table). Between attempts
// the owner is re-resolved, so a promotion inside the retry window catches
// the whole sub-batch. A sub-batch that cannot be delivered fails all its
// items with 502; the rest of the client's batch is unaffected.
func (rt *Router) forwardSubBatch(r *http.Request, g *subBatch, mode string, results [][]byte) {
	addr := g.addr
	var lastErr error
	for attempt := 0; ; attempt++ {
		if rt.ring.Up(addr) {
			done := rt.trackInflight(addr)
			rt.m.batchFanouts.Add(1)
			raw, err := rt.client.PostRaw(r.Context(), addr+"/batch", "application/json", g.body)
			var resp backendAnswer
			if err == nil {
				if resp, err = readAnswer(raw); err != nil {
					err = fmt.Errorf("%s/batch: decode response: %w", addr, err)
				}
			}
			done()
			if err == nil {
				rt.m.proxied.Add(1)
				if mode == "errors" {
					// Sparse shape: the backend acked the count and listed only
					// failures; remap their positions into the client's envelope.
					if resp.n != len(g.positions) {
						lastErr = fmt.Errorf("backend %s acked %d items for %d steps", addr, resp.n, len(g.positions))
						rt.m.backendErrors.Add(1)
						break
					}
					bad := false
					for _, f := range resp.failed {
						if f.Pos < 0 || f.Pos >= len(g.positions) {
							lastErr = fmt.Errorf("backend %s failed position %d outside %d steps", addr, f.Pos, len(g.positions))
							rt.m.backendErrors.Add(1)
							bad = true
							break
						}
						if f.Status == http.StatusTooManyRequests {
							rt.m.rejected.Add(1)
						}
						g.failed = append(g.failed, session.BatchFailure{Pos: g.positions[f.Pos], Status: f.Status, Error: f.Error})
					}
					if bad {
						g.failed = nil
						break
					}
					return
				}
				if len(resp.results) != len(g.positions) {
					lastErr = fmt.Errorf("backend %s answered %d results for %d steps", addr, len(resp.results), len(g.positions))
					rt.m.backendErrors.Add(1)
					break
				}
				for j, pos := range g.positions {
					results[pos] = resp.results[j].raw
					if resp.results[j].status == http.StatusTooManyRequests {
						rt.m.rejected.Add(1)
					}
				}
				return
			}
			if isStatusError(err) {
				// The backend is alive and refused the envelope (4xx).
				// Surface its verdict per item rather than marking down.
				lastErr = err
				rt.m.backendErrors.Add(1)
				break
			}
			lastErr = err
			rt.m.backendErrors.Add(1)
			rt.checker.markDown(addr)
		} else {
			lastErr = &BackendDownError{Addr: addr}
		}
		if !g.allKeyed || attempt >= keyedRetryAttempts {
			break
		}
		rt.m.keyedRetries.Add(1)
		rt.client.NoteRetry("transport")
		stop := false
		select {
		case <-r.Context().Done(): // the client hung up: stop retrying
			lastErr = r.Context().Err()
			stop = true
		case <-time.After(time.Duration(100<<attempt) * time.Millisecond):
		}
		if stop {
			break
		}
		// Re-resolve: a mark-down plus promotion re-homes every session the
		// dead backend owned onto one follower, so the first session's new
		// owner is the sub-batch's new owner.
		if newAddr, err := rt.ring.Lookup(g.first); err == nil {
			addr = newAddr
		}
	}
	status := http.StatusBadGateway
	msg := fmt.Sprintf("backend %s: %v", addr, lastErr)
	var down *BackendDownError
	if errors.As(lastErr, &down) {
		status = http.StatusServiceUnavailable
	}
	if mode == "errors" {
		for _, pos := range g.positions {
			g.failed = append(g.failed, session.BatchFailure{Pos: pos, Status: status, Error: msg})
		}
		return
	}
	for _, pos := range g.positions {
		results[pos] = rawStatus(status, msg)
	}
}
