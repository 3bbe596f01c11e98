package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/wire"
)

// RouterConfig tunes a Router.
type RouterConfig struct {
	// Backends are the spocus-server base URLs fronted by this router.
	Backends []string
	// Health tunes backend probing.
	Health HealthConfig
	// Client is the wire client used for proxying, probing, and handoff
	// (default: a pooled internal/wire client named "router" with a 30s
	// per-attempt timeout).
	Client *wire.Client
	// FollowerReads routes read-only session traffic (GET .../log, /verify,
	// /progress) to the owner's follower when one exists and its reported
	// replication lag is within FollowerMaxLag. Any follower trouble —
	// missing, lagging, erroring — falls back to the primary transparently.
	FollowerReads bool
	// FollowerMaxLag is the staleness bound for follower reads, in WAL
	// records behind the primary (default 0: only a fully caught-up
	// follower serves reads).
	FollowerMaxLag int64
}

// routerVnodes is the router ring's virtual nodes per backend.
const routerVnodes = 128

// Router fronts N spocus-server backends: it owns the consistent-hash ring
// mapping sessionID → backend, proxies the session API, health-checks
// backends, and serves handoff. See Handler for the HTTP surface.
type Router struct {
	ring           *Ring
	client         *wire.Client
	ownsClient     bool // close the client with the router iff we built it
	checker        *checker
	followerReads  bool
	followerMaxLag int64
	m              routerMetrics

	// handoffBusy serializes handoffs per session ID (see lockSession).
	handoffMu   sync.Mutex
	handoffBusy map[string]chan struct{}

	// followerCache maps primary → discovered follower (see promote.go).
	followersMu   sync.Mutex
	followerCache map[string]followerInfo

	// inflight gauges the upstream requests currently outstanding per
	// backend — the router's own view of backend pressure, exported with
	// the rest of the router metrics.
	inflightMu sync.Mutex
	inflight   map[string]*atomic.Int64
}

// routerMetrics counts the router's data plane, exported under the expvar
// key "spocus_router".
type routerMetrics struct {
	proxied          atomic.Int64 // requests forwarded to a backend
	backendErrors    atomic.Int64 // forwards that failed at the transport
	rejected         atomic.Int64 // 429s passed through from backends
	unroutable       atomic.Int64 // requests refused: backend down / ring empty
	handoffs         atomic.Int64 // completed session handoffs
	pinsRecovered    atomic.Int64 // pins rebuilt by startup recovery
	promotions       atomic.Int64 // follower promotions completed
	followerReads    atomic.Int64 // reads served by a follower
	followerFallback atomic.Int64 // follower reads that fell back to the primary
	keyedRetries     atomic.Int64 // idempotent POSTs retried after a transport error
	batchRequests    atomic.Int64 // client-facing POST /batch requests
	batchSteps       atomic.Int64 // steps carried by those requests
	batchFanouts     atomic.Int64 // upstream sub-batch requests sent
}

func (m *routerMetrics) snapshot() map[string]int64 {
	return map[string]int64{
		"proxied_total":           m.proxied.Load(),
		"backend_errors_total":    m.backendErrors.Load(),
		"rejected_total":          m.rejected.Load(),
		"unroutable_total":        m.unroutable.Load(),
		"handoffs_total":          m.handoffs.Load(),
		"pins_recovered_total":    m.pinsRecovered.Load(),
		"promotions_total":        m.promotions.Load(),
		"follower_reads_total":    m.followerReads.Load(),
		"follower_fallback_total": m.followerFallback.Load(),
		"keyed_retries_total":     m.keyedRetries.Load(),
		"batch_requests_total":    m.batchRequests.Load(),
		"batch_steps_total":       m.batchSteps.Load(),
		"batch_fanouts_total":     m.batchFanouts.Load(),
	}
}

// statsSnapshot is the expvar view: the counter set plus one in-flight
// gauge per backend ("inflight:<addr>").
func (rt *Router) statsSnapshot() map[string]int64 {
	out := rt.m.snapshot()
	rt.inflightMu.Lock()
	for addr, g := range rt.inflight {
		out["inflight:"+addr] = g.Load()
	}
	rt.inflightMu.Unlock()
	return out
}

// trackInflight bumps addr's in-flight gauge; the returned func drops it.
func (rt *Router) trackInflight(addr string) func() {
	rt.inflightMu.Lock()
	g, ok := rt.inflight[addr]
	if !ok {
		g = &atomic.Int64{}
		rt.inflight[addr] = g
	}
	rt.inflightMu.Unlock()
	g.Add(1)
	return func() { g.Add(-1) }
}

// NewRouter builds the ring from cfg.Backends (all initially up) and
// starts health checking. Call Close to stop the checker.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	client := cfg.Client
	ownsClient := false
	if client == nil {
		// The shared wire client: pooled keep-alive transport (the default
		// transport keeps only 2 idle connections per host — a router
		// funnelling hundreds of concurrent sessions into a few backends
		// would open and tear down connections constantly), counted dials
		// vs. reuse.
		client = wire.New(wire.Config{Name: "router"})
		ownsClient = true
	}
	rt := &Router{
		ring:           NewRing(routerVnodes),
		client:         client,
		ownsClient:     ownsClient,
		followerReads:  cfg.FollowerReads,
		followerMaxLag: cfg.FollowerMaxLag,
		handoffBusy:    make(map[string]chan struct{}),
		followerCache:  make(map[string]followerInfo),
		inflight:       make(map[string]*atomic.Int64),
	}
	for _, b := range cfg.Backends {
		rt.ring.Add(b)
	}
	rt.recoverPins()
	rt.checker = startChecker(rt.ring, cfg.Health, client)
	return rt, nil
}

// recoverPins rebuilds the pin table after a router restart. Pins live
// only in router memory; without recovery a handed-off session would
// hash-route back to its old home, which has a WAL close record for it —
// permanent 404s for a session still live on its pin target. The scan
// asks every backend which sessions it holds and re-pins any session
// found off its hash position: the only way a session gets there is a
// completed handoff. Best-effort: an unreachable backend contributes
// nothing — its on-position sessions need no pin, and a handed-off
// session living there stays unroutable until a later handoff, which is
// the same 503 the pin itself would answer while it is down.
func (rt *Router) recoverPins() {
	for _, addr := range rt.ring.Members() {
		var page struct {
			Sessions []*session.Info `json:"sessions"`
		}
		if err := rt.client.GetJSON(context.Background(), addr+"/sessions", &page); err != nil {
			continue
		}
		for _, s := range page.Sessions {
			if owner, ok := rt.ring.HashOwner(s.ID); ok && owner != addr {
				rt.ring.Pin(s.ID, addr)
				rt.m.pinsRecovered.Add(1)
			}
		}
	}
}

// Ring exposes the router's ring (for tests and for serving /debug/shards).
func (rt *Router) Ring() *Ring { return rt.ring }

// Close stops health checking, releases the router-owned wire client and
// takes the router out of the spocus_router expvar. In-flight proxied
// requests are unaffected.
func (rt *Router) Close() {
	routers.Remove(rt)
	rt.checker.stop()
	if rt.ownsClient {
		rt.client.Close()
	}
}

// Handler serves the router's HTTP surface — the session API of
// internal/session's Handler, proxied per-session to the owning backend,
// plus the cluster plane:
//
//	GET  /debug/shards                 live ring: members, health, shares, pins
//	POST /admin/handoff?session=&to=   move one session to backend `to`
//	GET  /healthz                      router liveness
//	GET  /debug/vars                   expvar ("spocus_router" metrics)
//
// Session-scoped routes are routed by hashing the session ID; POST
// /sessions assigns an ID before routing so the created session has a home
// the moment it exists, re-rolling the minted ID until it hashes to an up
// backend (client-chosen IDs are never re-homed — a down owner is 503).
// GET /sessions fans out to all up backends and merges. GET /models and
// GET /networks are answered by any up backend. A network session routes
// like any other — one session ID, one owning backend for the whole
// network. POST /batch splits a multi-session batch by ring owner and
// fans one sub-batch per backend (see batch.go).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", rt.handleOpen)
	mux.HandleFunc("GET /sessions", rt.handleList)
	mux.HandleFunc("POST /batch", rt.handleBatch)
	mux.HandleFunc("/sessions/{id}", rt.handleSession)
	mux.HandleFunc("/sessions/{id}/{rest...}", rt.handleSession)
	for _, route := range []string{"GET /models", "GET /networks"} {
		mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
			addrs := rt.ring.UpMembers()
			if len(addrs) == 0 {
				rt.refuse(w, ErrNoBackends)
				return
			}
			// Registry reads are identical on every backend; a caught-up
			// follower may answer them too and spare the primaries entirely.
			if rt.followerReads && rt.tryFollowerRead(w, r, addrs[0]) {
				return
			}
			rt.forward(w, r, addrs[0], nil)
		})
	}
	mux.HandleFunc("GET /debug/shards", func(w http.ResponseWriter, r *http.Request) {
		session.WriteJSON(w, http.StatusOK, rt.ring.Snapshot())
	})
	mux.HandleFunc("POST /admin/handoff", rt.handleHandoff)
	mux.HandleFunc("POST /admin/promote", rt.handlePromote)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		session.WriteJSON(w, http.StatusOK, map[string]any{"ok": true, "backends_up": len(rt.ring.UpMembers())})
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	routers.Add(rt)
	return mux
}

// handleOpen assigns the session its ID (when the client did not) so it
// can be routed, then forwards the rewritten body to the owning backend.
func (rt *Router) handleOpen(w http.ResponseWriter, r *http.Request) {
	var req session.OpenRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		session.WriteBodyErr(w, err)
		return
	}
	var addr string
	if req.ID == "" {
		// Routing is strict — a down owner is 503, never a re-home — so
		// placement avoids down backends by re-rolling the minted ID until
		// it hashes to an up one, not by bending the ring. With u of n
		// backends up a roll succeeds with probability ≈ u/n, so 64
		// attempts fail only when essentially everything is down.
		for attempt := 0; ; attempt++ {
			req.ID = session.NewID()
			if addr, err = rt.ring.Lookup(req.ID); err == nil {
				break
			}
			if errors.Is(err, ErrNoBackends) || attempt >= 64 {
				rt.refuse(w, err)
				return
			}
		}
		if body, err = json.Marshal(&req); err != nil {
			session.WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
	} else if addr, err = rt.ring.Lookup(req.ID); err != nil {
		rt.refuse(w, err)
		return
	}
	rt.forward(w, r, addr, body)
}

// handleSession routes everything under /sessions/{id} by the ID hash.
// Read-only subresources may be served by the owner's follower instead
// (see tryFollowerRead); everything else goes to the owner.
func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	addr, err := rt.ring.Lookup(r.PathValue("id"))
	if err != nil {
		// A keyed POST whose owner is down is worth holding on to: the
		// retry loop in forward re-resolves the owner between attempts, so
		// if a promotion re-homes the session within the window the client
		// never sees the failure.
		var down *BackendDownError
		if errors.As(err, &down) && r.Method == http.MethodPost && r.Header.Get("Idempotency-Key") != "" {
			rt.forward(w, r, down.Addr, nil)
			return
		}
		rt.refuse(w, err)
		return
	}
	if rt.followerReads && r.Method == http.MethodGet {
		switch r.PathValue("rest") {
		case "log", "verify", "progress":
			if rt.tryFollowerRead(w, r, addr) {
				return
			}
		}
	}
	rt.forward(w, r, addr, nil)
}

// tryFollowerRead serves one read from the owner's follower when the
// follower's self-reported replication lag is within the configured bound.
// It reports false — and touches nothing of the response — whenever the
// primary should answer instead: no follower, lagging, transport error, or
// any non-2xx (a 404 may just mean the session has not streamed over yet).
// The served-by header makes the data path observable in tests and curls.
func (rt *Router) tryFollowerRead(w http.ResponseWriter, r *http.Request, owner string) bool {
	fol, lag, ok := rt.followerFor(owner)
	if !ok || lag > rt.followerMaxLag {
		rt.m.followerFallback.Add(1)
		return false
	}
	url := fol + "/replica" + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url, nil)
	if err != nil {
		rt.m.followerFallback.Add(1)
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.m.followerFallback.Add(1)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		rt.m.followerFallback.Add(1)
		return false
	}
	rt.m.followerReads.Add(1)
	rt.m.proxied.Add(1)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("X-Spocus-Served-By", fol)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

func isStatusError(err error) bool {
	var se *wire.StatusError
	return errors.As(err, &se)
}

// handleList fans GET /sessions out to every up backend and merges the
// results, sorted by session ID. A backend that cannot be listed — down,
// unreachable, non-2xx, or undecodable — makes the merge partial, flagged
// in the response so a short list is never mistaken for a complete one.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	members := rt.ring.Members()
	if len(rt.ring.UpMembers()) == 0 {
		rt.refuse(w, ErrNoBackends)
		return
	}
	var all []*session.Info
	partial := false
	for _, addr := range members {
		if !rt.ring.Up(addr) {
			partial = true
			continue
		}
		var page struct {
			Sessions []*session.Info `json:"sessions"`
		}
		if err := rt.client.GetJSON(r.Context(), addr+"/sessions", &page); err != nil {
			rt.m.backendErrors.Add(1)
			if !isStatusError(err) {
				rt.checker.markDown(addr)
			}
			partial = true
			continue
		}
		all = append(all, page.Sessions...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	out := map[string]any{"sessions": all}
	if partial {
		out["partial"] = true
	}
	session.WriteJSON(w, http.StatusOK, out)
}

// retryAttempts bounds the resends of one request (backoff 100ms, 200ms,
// ... between attempts — wide enough for a mark-down plus promotion to
// land in between).
const retryAttempts = 5

// retry is the cluster plane's one backoff step. It runs between the
// attempts of a send that is safe to resend, after attempt failed with
// cause: a *wire.StatusError whose 429 or 503 the peer answered without
// applying anything, or else a transport failure (or a down owner) of a
// keyed send, which the backend answers as a duplicate if it did apply.
// Once retryAttempts retries were made it answers false. Otherwise it
// counts the retry — under the wire client's retries by cause, and a
// transport retry under keyed_retries_total too — waits 100<<attempt ms,
// answering false with the context's error if the client hangs up first,
// and re-resolves the owner of session id into *addr, since a mark-down
// plus promotion flips the session's pin to the follower; an empty id
// keeps *addr.
func (rt *Router) retry(ctx context.Context, attempt int, cause error, id string, addr *string) (bool, error) {
	if attempt >= retryAttempts {
		return false, nil
	}
	var se *wire.StatusError
	if errors.As(cause, &se) {
		rt.client.NoteRetry(strconv.Itoa(se.Status))
	} else {
		rt.m.keyedRetries.Add(1)
		rt.client.NoteRetry("transport")
	}
	select {
	case <-ctx.Done():
		return false, ctx.Err()
	case <-time.After(time.Duration(100<<attempt) * time.Millisecond):
	}
	if id != "" {
		if a, err := rt.ring.Lookup(id); err == nil {
			*addr = a
		}
	}
	return true, nil
}

// forward proxies one request to addr, preserving method, path, query,
// and body. A transport failure marks the backend down immediately — the
// client sees 502 now, and hashed keys remap on the next lookup.
//
// Exception: a POST carrying an Idempotency-Key is safe to re-send — the
// backend answers a duplicate from its key table instead of re-applying —
// so instead of surfacing an ambiguous 502, the router retries it
// transparently, re-resolving the session's owner between attempts. If the
// owner died and a promotion pins the session to its follower within the
// retry window, the client's request lands there and succeeds; the client
// never learns there was a failover.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, addr string, body []byte) {
	retryable := r.Method == http.MethodPost && r.Header.Get("Idempotency-Key") != ""
	if retryable && body == nil {
		var err error
		if body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20)); err != nil {
			session.WriteBodyErr(w, err)
			return
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if rt.ring.Up(addr) {
			// Zero-copy proxy: the body streams through untouched (routing
			// needed only the path), and the response streams back — the
			// router never decodes the data plane.
			var rd io.Reader = r.Body
			if body != nil {
				rd = bytes.NewReader(body)
			}
			url := addr + r.URL.Path
			if r.URL.RawQuery != "" {
				url += "?" + r.URL.RawQuery
			}
			req, err := http.NewRequestWithContext(r.Context(), r.Method, url, rd)
			if err != nil {
				session.WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
				return
			}
			// No GetBody: a request that has one and carries an
			// Idempotency-Key is one net/http's Transport resends by itself
			// when a reused connection dies under it. This loop is the one
			// that resends: it marks the backend down, backs off, counts
			// keyed_retries_total and re-resolves the owner first.
			req.GetBody = nil
			for _, k := range []string{"Content-Type", "Idempotency-Key"} {
				if v := r.Header.Get(k); v != "" {
					req.Header.Set(k, v)
				}
			}
			done := rt.trackInflight(addr)
			resp, err := rt.client.Do(req)
			if err == nil {
				defer done()
				defer resp.Body.Close()
				rt.m.proxied.Add(1)
				if resp.StatusCode == http.StatusTooManyRequests {
					rt.m.rejected.Add(1)
				}
				for _, k := range []string{"Content-Type", "Retry-After"} {
					if v := resp.Header.Get(k); v != "" {
						w.Header().Set(k, v)
					}
				}
				w.WriteHeader(resp.StatusCode)
				io.Copy(w, resp.Body)
				return
			}
			done()
			lastErr = err
			rt.m.backendErrors.Add(1)
			rt.checker.markDown(addr)
		}
		if !retryable {
			break
		}
		retry, err := rt.retry(r.Context(), attempt, lastErr, r.PathValue("id"), &addr)
		if err != nil {
			lastErr = err
		}
		if !retry {
			break
		}
	}
	if lastErr != nil {
		session.WriteJSON(w, http.StatusBadGateway, map[string]string{"error": fmt.Sprintf("backend %s: %v", addr, lastErr)})
		return
	}
	rt.refuse(w, &BackendDownError{Addr: addr})
}

// refuse maps routing failures onto statuses: no backend or a down
// backend is 503 (retryable once health or handoff heals the ring).
func (rt *Router) refuse(w http.ResponseWriter, err error) {
	rt.m.unroutable.Add(1)
	var down *BackendDownError
	if errors.Is(err, ErrNoBackends) || errors.As(err, &down) {
		w.Header().Set("Retry-After", "1")
		session.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		return
	}
	session.WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
}

// routers tracks live routers so the process-wide expvar export can
// aggregate across them (a process normally has exactly one).
var routers obs.Set[Router]

func init() {
	routers.Publish("spocus_router", func(rs []*Router) any {
		agg := make([]map[string]int64, 0, len(rs))
		for _, rt := range rs {
			agg = append(agg, rt.statsSnapshot())
		}
		return agg
	})
}
