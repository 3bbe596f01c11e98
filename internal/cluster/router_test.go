package cluster

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/session"
)

// testCluster is 3 in-memory backends behind one router, all in-process.
type testCluster struct {
	engines  []*session.Engine
	backends []*httptest.Server
	router   *Router
	front    *httptest.Server
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		e, err := session.NewEngine(session.Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(session.Handler(e))
		tc.engines = append(tc.engines, e)
		tc.backends = append(tc.backends, srv)
	}
	addrs := make([]string, n)
	for i, b := range tc.backends {
		addrs[i] = b.URL
	}
	rt, err := NewRouter(RouterConfig{
		Backends: addrs,
		Health:   HealthConfig{Interval: 20 * time.Millisecond, Timeout: 200 * time.Millisecond, FailAfter: 2, MaxBackoff: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.router = rt
	tc.front = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		tc.front.Close()
		rt.Close()
		for i := range tc.backends {
			tc.backends[i].Close()
			tc.engines[i].Shutdown()
		}
	})
	return tc
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func orderInput(item string) map[string]any {
	return map[string]any{"input": map[string][][]string{"order": {{item}}}}
}

// TestRouterRoutesConsistently: a session opened through the router lands
// on exactly one backend, and every subsequent request reaches it.
func TestRouterRoutesConsistently(t *testing.T) {
	tc := newTestCluster(t, 3)
	const sessions = 24
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("route-%02d", i)
		var info session.Info
		if st := postJSON(t, tc.front.URL+"/sessions", map[string]string{"id": id, "model": "short"}, &info); st != http.StatusCreated {
			t.Fatalf("open %s: status %d", id, st)
		}
		var res session.StepResult
		if st := postJSON(t, tc.front.URL+"/sessions/"+id+"/input", orderInput("newsweek"), &res); st != http.StatusOK {
			t.Fatalf("input %s: status %d", id, st)
		}
		if res.Seq != 1 {
			t.Fatalf("input %s: seq %d", id, res.Seq)
		}
		// The session exists on exactly one backend — the ring's choice.
		want, err := tc.router.Ring().Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		homes := 0
		for _, b := range tc.backends {
			st := getJSON(t, b.URL+"/sessions/"+id, nil)
			if st == http.StatusOK {
				homes++
				if b.URL != want {
					t.Fatalf("%s lives on %s, ring says %s", id, b.URL, want)
				}
			}
		}
		if homes != 1 {
			t.Fatalf("%s has %d homes", id, homes)
		}
	}

	// The merged list sees every session exactly once.
	var list struct {
		Sessions []session.Info `json:"sessions"`
	}
	if st := getJSON(t, tc.front.URL+"/sessions", &list); st != http.StatusOK {
		t.Fatalf("list: status %d", st)
	}
	if len(list.Sessions) != sessions {
		t.Fatalf("merged list has %d sessions, want %d", len(list.Sessions), sessions)
	}
}

// TestRouterAssignsID: POST /sessions without an ID still routes — the
// router must mint the ID itself to know the owner.
func TestRouterAssignsID(t *testing.T) {
	tc := newTestCluster(t, 3)
	var info session.Info
	if st := postJSON(t, tc.front.URL+"/sessions", map[string]string{"model": "short"}, &info); st != http.StatusCreated {
		t.Fatalf("open: status %d", st)
	}
	if info.ID == "" {
		t.Fatal("router did not assign an ID")
	}
	if st := postJSON(t, tc.front.URL+"/sessions/"+info.ID+"/input", orderInput("time"), nil); st != http.StatusOK {
		t.Fatalf("input on assigned ID: status %d", st)
	}
}

// TestRouterHandoff moves a session between backends mid-run and checks
// the log through the router is unbroken, the ring is pinned, and the
// session keeps stepping on the new owner.
func TestRouterHandoff(t *testing.T) {
	tc := newTestCluster(t, 3)
	id := "handoff-1"
	postJSON(t, tc.front.URL+"/sessions", map[string]string{"id": id, "model": "short"}, nil)
	postJSON(t, tc.front.URL+"/sessions/"+id+"/input", orderInput("newsweek"), nil)
	var before session.LogResult
	getJSON(t, tc.front.URL+"/sessions/"+id+"/log", &before)

	from, err := tc.router.Ring().Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	var to string
	for _, b := range tc.backends {
		if b.URL != from {
			to = b.URL
			break
		}
	}

	var res HandoffResult
	url := fmt.Sprintf("%s/admin/handoff?session=%s&to=%s", tc.front.URL, id, to)
	if st := postJSON(t, url, nil, &res); st != http.StatusOK {
		t.Fatalf("handoff: status %d", st)
	}
	if res.From != from || res.To != to || res.Steps != 1 {
		t.Fatalf("handoff result %+v", res)
	}

	// Ring reflects the move.
	var shards Info
	getJSON(t, tc.front.URL+"/debug/shards", &shards)
	if shards.Pins[id] != to {
		t.Fatalf("pin missing from /debug/shards: %v", shards.Pins)
	}

	// Gone at the source, serving at the target, log intact via router.
	if st := getJSON(t, from+"/sessions/"+id, nil); st != http.StatusNotFound {
		t.Fatalf("source still has the session: status %d", st)
	}
	var after session.LogResult
	if st := getJSON(t, tc.front.URL+"/sessions/"+id+"/log", &after); st != http.StatusOK {
		t.Fatalf("log after handoff: status %d", st)
	}
	if after.Steps != before.Steps || !after.Log.Equal(before.Log) {
		t.Fatalf("handoff changed the log:\n got %s\nwant %s", after.Log, before.Log)
	}
	var step session.StepResult
	if st := postJSON(t, tc.front.URL+"/sessions/"+id+"/input", orderInput("time"), &step); st != http.StatusOK || step.Seq != 2 {
		t.Fatalf("step after handoff: status %d, %+v", st, step)
	}

	// Handing off to the current owner is a no-op.
	if st := postJSON(t, fmt.Sprintf("%s/admin/handoff?session=%s&to=%s", tc.front.URL, id, to), nil, &res); st != http.StatusOK {
		t.Fatalf("no-op handoff: status %d", st)
	}

	// Unknown target is refused.
	if st := postJSON(t, fmt.Sprintf("%s/admin/handoff?session=%s&to=%s", tc.front.URL, id, "http://nope:1"), nil, nil); st != http.StatusBadGateway {
		t.Fatalf("handoff to unknown backend: status %d", st)
	}
}

// TestRouterFailoverMarksDown kills one backend and checks the router
// marks it down, refuses its sessions with 503 (never re-homing them to a
// survivor), and keeps serving sessions on the survivors at their
// unchanged owners.
func TestRouterFailoverMarksDown(t *testing.T) {
	tc := newTestCluster(t, 3)
	// Open enough sessions that every backend owns some.
	ids := make([]string, 30)
	owner := make(map[string]string)
	for i := range ids {
		ids[i] = fmt.Sprintf("fo-%02d", i)
		postJSON(t, tc.front.URL+"/sessions", map[string]string{"id": ids[i], "model": "short"}, nil)
		addr, err := tc.router.Ring().Lookup(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		owner[ids[i]] = addr
	}

	victim := tc.backends[0].URL
	tc.backends[0].Close() // SIGKILL equivalent for an in-process backend

	// The health checker notices within a few probe intervals.
	deadline := time.Now().Add(5 * time.Second)
	for tc.router.Ring().Up(victim) {
		if time.Now().After(deadline) {
			t.Fatal("router never marked the dead backend down")
		}
		time.Sleep(10 * time.Millisecond)
	}

	var shards Info
	getJSON(t, tc.front.URL+"/debug/shards", &shards)
	for _, m := range shards.Members {
		if m.Addr == victim && m.Up {
			t.Fatal("/debug/shards still shows the dead backend up")
		}
	}

	survivorsServed, deadRefused := 0, 0
	for _, id := range ids {
		st := getJSON(t, tc.front.URL+"/sessions/"+id, nil)
		if owner[id] == victim {
			// Strict routing: the victim still owns the key, so the router
			// answers 503 — it must not re-home the session to a survivor,
			// where a re-open would fork its log.
			if st != http.StatusServiceUnavailable {
				t.Fatalf("session %s on the dead backend: status %d, want 503", id, st)
			}
			if addr, err := tc.router.Ring().Lookup(id); addr != victim || err == nil {
				t.Fatalf("dead session %s re-homed %s → %s (err %v)", id, victim, addr, err)
			}
			deadRefused++
			continue
		}
		if st != http.StatusOK {
			t.Fatalf("surviving session %s: status %d", id, st)
		}
		if addr, _ := tc.router.Ring().Lookup(id); addr != owner[id] {
			t.Fatalf("surviving session %s remapped %s → %s", id, owner[id], addr)
		}
		survivorsServed++
	}
	if survivorsServed == 0 || deadRefused == 0 {
		t.Fatalf("vacuous failover test: %d survivors, %d dead", survivorsServed, deadRefused)
	}
}

// TestRouterNoRehomeWhileOwnerDown pins the fork hazard directly: while a
// session's owner is down, re-opening the same ID through the router must
// be refused (503), not quietly created on the hash successor — that
// second copy would fork the log when the owner recovered. Placement of
// *new* (router-minted) IDs keeps working, landing only on up backends.
func TestRouterNoRehomeWhileOwnerDown(t *testing.T) {
	tc := newTestCluster(t, 3)
	victim := tc.backends[0].URL
	// Find an ID owned by the victim.
	var id string
	for i := 0; ; i++ {
		id = fmt.Sprintf("rehome-%04d", i)
		if addr, err := tc.router.Ring().Lookup(id); err == nil && addr == victim {
			break
		}
	}
	if st := postJSON(t, tc.front.URL+"/sessions", map[string]string{"id": id, "model": "short"}, nil); st != http.StatusCreated {
		t.Fatalf("open: status %d", st)
	}
	postJSON(t, tc.front.URL+"/sessions/"+id+"/input", orderInput("newsweek"), nil)

	tc.backends[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	for tc.router.Ring().Up(victim) {
		if time.Now().After(deadline) {
			t.Fatal("router never marked the dead backend down")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Re-open of the same ID and inputs to it are both 503 — never served
	// elsewhere, never created elsewhere.
	if st := postJSON(t, tc.front.URL+"/sessions", map[string]string{"id": id, "model": "short"}, nil); st != http.StatusServiceUnavailable {
		t.Fatalf("re-open of a down owner's session: status %d, want 503", st)
	}
	if st := postJSON(t, tc.front.URL+"/sessions/"+id+"/input", orderInput("time"), nil); st != http.StatusServiceUnavailable {
		t.Fatalf("input to a down owner's session: status %d, want 503", st)
	}
	for _, b := range tc.backends[1:] {
		if st := getJSON(t, b.URL+"/sessions/"+id, nil); st != http.StatusNotFound {
			t.Fatalf("session %s leaked onto survivor %s: status %d", id, b.URL, st)
		}
	}

	// Minted IDs are re-rolled onto up backends.
	for i := 0; i < 10; i++ {
		var info session.Info
		if st := postJSON(t, tc.front.URL+"/sessions", map[string]string{"model": "short"}, &info); st != http.StatusCreated {
			t.Fatalf("open with minted ID: status %d", st)
		}
		addr, err := tc.router.Ring().Lookup(info.ID)
		if err != nil || addr == victim {
			t.Fatalf("minted ID %s placed on %s (err %v)", info.ID, addr, err)
		}
	}
}

// TestRouterPinRecovery restarts the router (new Router over the same
// backends) after a handoff and checks the pin is reconstructed from the
// backends' session lists — without it the handed-off session would
// hash-route to its old home's WAL close record: permanent 404s.
func TestRouterPinRecovery(t *testing.T) {
	tc := newTestCluster(t, 3)
	id := "recover-1"
	postJSON(t, tc.front.URL+"/sessions", map[string]string{"id": id, "model": "short"}, nil)
	postJSON(t, tc.front.URL+"/sessions/"+id+"/input", orderInput("newsweek"), nil)

	from, err := tc.router.Ring().Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	var to string
	for _, b := range tc.backends {
		if b.URL != from {
			to = b.URL
			break
		}
	}
	if st := postJSON(t, fmt.Sprintf("%s/admin/handoff?session=%s&to=%s", tc.front.URL, id, to), nil, nil); st != http.StatusOK {
		t.Fatalf("handoff: status %d", st)
	}

	// "Restart": a fresh router over the same backends, no shared state.
	addrs := make([]string, len(tc.backends))
	for i, b := range tc.backends {
		addrs[i] = b.URL
	}
	rt2, err := NewRouter(RouterConfig{Backends: addrs,
		Health: HealthConfig{Interval: 20 * time.Millisecond, Timeout: 200 * time.Millisecond, FailAfter: 2, MaxBackoff: 100 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	front2 := httptest.NewServer(rt2.Handler())
	defer front2.Close()

	if addr, err := rt2.Ring().Lookup(id); err != nil || addr != to {
		t.Fatalf("restarted router routes %s to %s (%v), want pin to %s", id, addr, err, to)
	}
	var res session.StepResult
	if st := postJSON(t, front2.URL+"/sessions/"+id+"/input", orderInput("time"), &res); st != http.StatusOK || res.Seq != 2 {
		t.Fatalf("step through restarted router: status %d, %+v", st, res)
	}
}

// TestRouterConcurrentHandoffs races two handoffs of one session to two
// different targets. Serialization must leave exactly one live copy, a
// coherent pin, and an unbroken log — no orphan replica on the loser's
// target.
func TestRouterConcurrentHandoffs(t *testing.T) {
	tc := newTestCluster(t, 3)
	id := "race-1"
	postJSON(t, tc.front.URL+"/sessions", map[string]string{"id": id, "model": "short"}, nil)
	postJSON(t, tc.front.URL+"/sessions/"+id+"/input", orderInput("newsweek"), nil)

	from, err := tc.router.Ring().Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	var targets []string
	for _, b := range tc.backends {
		if b.URL != from {
			targets = append(targets, b.URL)
		}
	}
	done := make(chan struct{})
	for _, to := range targets {
		go func(to string) {
			defer func() { done <- struct{}{} }()
			// Either outcome (moved, or no-op because the other won) is
			// fine; what matters is the invariant below. Raw http.Post —
			// t.Fatal must not run off the test goroutine.
			resp, err := http.Post(fmt.Sprintf("%s/admin/handoff?session=%s&to=%s", tc.front.URL, id, to), "application/json", bytes.NewReader(nil))
			if err == nil {
				resp.Body.Close()
			}
		}(to)
	}
	<-done
	<-done

	homes := 0
	for _, b := range tc.backends {
		if getJSON(t, b.URL+"/sessions/"+id, nil) == http.StatusOK {
			homes++
		}
	}
	if homes != 1 {
		t.Fatalf("session has %d live copies after racing handoffs, want exactly 1", homes)
	}
	var res session.StepResult
	if st := postJSON(t, tc.front.URL+"/sessions/"+id+"/input", orderInput("time"), &res); st != http.StatusOK || res.Seq != 2 {
		t.Fatalf("step after racing handoffs: status %d, %+v", st, res)
	}
}

// TestRouterListPartial: a backend that answers GET /sessions with non-2xx
// is counted as a backend error and flags the merged list as partial,
// instead of being silently omitted.
func TestRouterListPartial(t *testing.T) {
	e, err := session.NewEngine(session.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	good := httptest.NewServer(session.Handler(e))
	defer good.Close()
	// Healthy to the prober, broken on the list path.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			session.WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
			return
		}
		session.WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": "boom"})
	}))
	defer bad.Close()

	rt, err := NewRouter(RouterConfig{Backends: []string{good.URL, bad.URL},
		Health: HealthConfig{Interval: 20 * time.Millisecond, Timeout: 200 * time.Millisecond, FailAfter: 2, MaxBackoff: 100 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	if _, err := e.Open(&session.OpenRequest{ID: "p-1", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	errsBefore := rt.m.backendErrors.Load()
	var list struct {
		Sessions []session.Info `json:"sessions"`
		Partial  bool           `json:"partial"`
	}
	if st := getJSON(t, front.URL+"/sessions", &list); st != http.StatusOK {
		t.Fatalf("list: status %d", st)
	}
	if !list.Partial {
		t.Fatal("merged list over a failing backend not flagged partial")
	}
	if len(list.Sessions) != 1 || list.Sessions[0].ID != "p-1" {
		t.Fatalf("merged list: %+v", list.Sessions)
	}
	if rt.m.backendErrors.Load() == errsBefore {
		t.Fatal("failing list backend did not count as a backend error")
	}
}

// TestClosedRouterLeavesAggregate: a router joins the spocus_router
// aggregate when it builds its handler and leaves it on Close.
func TestClosedRouterLeavesAggregate(t *testing.T) {
	listed := func() int {
		var agg []map[string]int64
		if v := expvar.Get("spocus_router"); v != nil {
			if err := json.Unmarshal([]byte(v.String()), &agg); err != nil {
				t.Fatal(err)
			}
		}
		return len(agg)
	}
	n := listed()
	tc := newTestCluster(t, 1)
	if !slices.Contains(routers.Live(), tc.router) || listed() != n+1 {
		t.Fatalf("a new router is not in the aggregate (%d listed, %d before)", listed(), n)
	}
	tc.router.Close()
	if slices.Contains(routers.Live(), tc.router) || listed() != n {
		t.Errorf("a closed router is still in the aggregate (%d listed, %d before)", listed(), n)
	}
}
