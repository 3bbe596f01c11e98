package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/session"
)

// faultyBackend serves a session engine, and injects faults into the
// requests for chosen paths, one queued fault per request: dropAfterApply
// applies the request and then closes the connection without an answer, so
// the router meets a transport error for a request that did apply; a
// status answers the request with it and applies nothing.
type faultyBackend struct {
	next http.Handler

	mu     sync.Mutex
	faults map[string][]int // path → faults for its next requests
	seen   map[string]int   // path → requests served
}

const dropAfterApply = -1

func (b *faultyBackend) inject(path string, faults ...int) {
	b.mu.Lock()
	b.faults[path] = append(b.faults[path], faults...)
	b.mu.Unlock()
}

func (b *faultyBackend) requests(path string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seen[path]
}

func (b *faultyBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b.mu.Lock()
	b.seen[r.URL.Path]++
	fault := 0
	if q := b.faults[r.URL.Path]; len(q) > 0 {
		fault, b.faults[r.URL.Path] = q[0], q[1:]
	}
	b.mu.Unlock()
	switch fault {
	case 0:
		b.next.ServeHTTP(w, r)
	case dropAfterApply:
		b.next.ServeHTTP(httptest.NewRecorder(), r)
		if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
			conn.Close()
		}
	default:
		session.WriteJSON(w, fault, map[string]string{"error": "injected"})
	}
}

// TestRouterRetryRule checks the router's one retry loop where it runs,
// against backends that apply a request and then drop its connection:
//   - a keyed single step, and an all-keyed /batch sub-batch, are resent,
//     and the resend is answered as a duplicate: one step in the log;
//   - an unkeyed step answers 502, is sent exactly once and logged once;
//   - a handoff whose install meets a 429 resends it to the same target
//     and completes.
func TestRouterRetryRule(t *testing.T) {
	backends := make([]*faultyBackend, 2)
	urls := make([]string, 2)
	for i := range backends {
		e, err := session.NewEngine(session.Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = &faultyBackend{next: session.Handler(e), faults: map[string][]int{}, seen: map[string]int{}}
		srv := httptest.NewUnstartedServer(backends[i])
		// One connection per request: net/http's transport itself resends
		// a keyed request that fails on a reused connection, and the
		// resend under test is the router's.
		srv.Config.SetKeepAlivesEnabled(false)
		srv.Start()
		urls[i] = srv.URL
		t.Cleanup(func() {
			srv.Close()
			e.Shutdown()
		})
	}
	rt, err := NewRouter(RouterConfig{
		Backends: urls,
		Health:   HealthConfig{Interval: 20 * time.Millisecond, Timeout: 200 * time.Millisecond, FailAfter: 2, MaxBackoff: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		front.Close()
		rt.Close()
	})
	var ids []string // two sessions of backend 0
	for n := 0; len(ids) < 2; n++ {
		id := fmt.Sprintf("rr-%03d", n)
		if owner, _ := rt.Ring().Lookup(id); owner == urls[0] {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		if st := postJSON(t, front.URL+"/sessions", map[string]string{"id": id, "model": "short"}, nil); st != http.StatusCreated {
			t.Fatalf("open %s: status %d", id, st)
		}
	}
	owner := backends[0]
	steps := func(id string) int {
		t.Helper()
		var lr session.LogResult
		if st := getJSON(t, front.URL+"/sessions/"+id+"/log", &lr); st != http.StatusOK {
			t.Fatalf("log %s: status %d", id, st)
		}
		return lr.Steps
	}
	send := func(url, key, body string, out any) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}
	waitUp := func() {
		t.Helper()
		waitFor(t, "the owner back up", func() bool { return rt.Ring().Up(urls[0]) })
	}

	// A keyed single step: applied, dropped, resent, answered as a duplicate.
	input := "/sessions/" + ids[0] + "/input"
	owner.inject(input, dropAfterApply)
	var res session.StepResult
	if st := send(front.URL+input, "k1", `{"input":{"order":[["time"]]}}`, &res); st != http.StatusOK || !res.Duplicate || res.Seq != 1 {
		t.Fatalf("keyed step after a dropped answer: status %d, %+v; want the resend's duplicate of step 1", st, res)
	}
	if n := owner.requests(input); n != 2 {
		t.Fatalf("keyed step reached the backend %d times, want 2", n)
	}
	if n := steps(ids[0]); n != 1 {
		t.Fatalf("keyed step logged %d times, want once", n)
	}

	// An all-keyed sub-batch: the same, item by item.
	waitUp()
	owner.inject("/batch", dropAfterApply)
	var br session.BatchResponse
	body := `{"steps":[{"session":"` + ids[0] + `","key":"b1","input":{"order":[["newsweek"]]}},` +
		`{"session":"` + ids[1] + `","key":"b2","input":{"order":[["time"]]}}]}`
	if st := send(front.URL+"/batch", "", body, &br); st != http.StatusOK || len(br.Results) != 2 {
		t.Fatalf("keyed batch after a dropped answer: status %d, %+v", st, br)
	}
	for i, r := range br.Results {
		if r.Status != http.StatusOK || r.Result == nil || !r.Result.Duplicate {
			t.Fatalf("keyed batch item %d: %+v; want the resend's duplicate", i, r)
		}
	}
	if n := owner.requests("/batch"); n != 2 {
		t.Fatalf("keyed sub-batch reached the backend %d times, want 2", n)
	}
	if a, b := steps(ids[0]), steps(ids[1]); a != 2 || b != 1 {
		t.Fatalf("after the keyed batch: %d and %d steps, want 2 and 1", a, b)
	}
	// Each resend is one retry, and so is each wait for the health checker
	// to see the owner back up before it.
	keyed := rt.m.keyedRetries.Load()
	if keyed < 2 {
		t.Fatalf("keyed_retries_total = %d, want at least 2", keyed)
	}

	// An unkeyed step: applied, dropped, never resent.
	waitUp()
	owner.inject(input, dropAfterApply)
	before := owner.requests(input)
	if st := send(front.URL+input, "", `{"input":{"order":[["newsweek"]]}}`, nil); st != http.StatusBadGateway {
		t.Fatalf("unkeyed step after a dropped answer: status %d, want 502", st)
	}
	if n := owner.requests(input) - before; n != 1 {
		t.Fatalf("unkeyed step reached the backend %d times, want once", n)
	}
	waitUp()
	if n := steps(ids[0]); n != 3 {
		t.Fatalf("unkeyed step: %d steps in the log, want 3 (applied once)", n)
	}

	// A handoff whose install is refused with 429 once: resent, completed.
	backends[1].inject("/admin/install", http.StatusTooManyRequests)
	if _, err := rt.Handoff(ids[0], urls[1]); err != nil {
		t.Fatalf("handoff through a 429: %v", err)
	}
	if n := backends[1].requests("/admin/install"); n != 2 {
		t.Fatalf("install sent %d times, want 2", n)
	}
	if n := rt.m.keyedRetries.Load(); n != keyed {
		t.Fatalf("keyed_retries_total = %d after the handoff, want %d: a 429 is not a keyed retry", n, keyed)
	}
	if got := rt.client.Stats().Retries; got["429"] != 1 || got["transport"] != keyed {
		t.Fatalf("wire retries by cause %v, want 429:1 transport:%d", got, keyed)
	}
	if n := steps(ids[0]); n != 3 {
		t.Fatalf("after the handoff %s has %d steps, want 3", ids[0], n)
	}
}
