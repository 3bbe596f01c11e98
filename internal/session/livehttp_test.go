package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/relation"
)

// newTestServer serves an engine the test configured itself (httpServer
// always uses defaults) and owns its shutdown.
func newTestServer(t *testing.T, e *Engine) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(Handler(e))
	t.Cleanup(func() {
		srv.Close()
		e.Shutdown()
	})
	return srv
}

func jsonBody(t *testing.T, v any) *bytes.Reader {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

func mustStep(t *testing.T, e *Engine, id string, facts ...relation.Fact) {
	t.Helper()
	if _, err := e.Input(id, models.Step(facts...)); err != nil {
		t.Fatal(err)
	}
}

// TestPeekSnapshot checks the verification plane's read primitive: the View
// is a point-in-time clone — later steps do not leak into it — and Peek
// works on frozen sessions.
func TestPeekSnapshot(t *testing.T) {
	e, err := NewEngine(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	if _, err := e.Open(&OpenRequest{ID: "s1", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	mustStep(t, e, "s1", models.F("order", "time"))
	view, err := e.Peek("s1")
	if err != nil {
		t.Fatal(err)
	}
	if view.Steps != 1 || view.Model != "short" {
		t.Fatalf("view: %+v", view)
	}
	if !view.Past.Rel("order").Has(relation.Tuple{"time"}) {
		t.Fatalf("past misses order(time): %v", view.Past)
	}

	// A step after the Peek must not appear in the already-taken View.
	mustStep(t, e, "s1", models.F("pay", "time", "855"))
	if view.Past.Rel("pay") != nil && view.Past.Rel("pay").Len() > 0 {
		t.Fatalf("view mutated by a later step: %v", view.Past)
	}

	// Peek still serves a frozen (mid-handoff) session.
	if _, err := e.ExportState("s1"); err != nil {
		t.Fatal(err)
	}
	view2, err := e.Peek("s1")
	if err != nil {
		t.Fatalf("peek on frozen session: %v", err)
	}
	if view2.Steps != 2 {
		t.Fatalf("frozen view steps = %d, want 2", view2.Steps)
	}
	if _, err := e.Peek("nope"); err == nil {
		t.Fatal("peek of unknown session should fail")
	}
}

// TestSessionRateLimit checks the per-session token bucket: a burst is
// admitted, the next step inside the same instant is rejected with
// RateLimitedError and a positive Retry-After, other sessions are
// unaffected, and tokens refill with time.
func TestSessionRateLimit(t *testing.T) {
	e, err := NewEngine(Config{Shards: 1, SessionRate: 20, SessionBurst: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	for _, id := range []string{"a", "b"} {
		if _, err := e.Open(&OpenRequest{ID: id, Model: "short"}); err != nil {
			t.Fatal(err)
		}
	}
	mustStep(t, e, "a", models.F("order", "time"))
	mustStep(t, e, "a", models.F("order", "newsweek"))
	_, err = e.Input("a", models.Step(models.F("order", "le-monde")))
	limited, ok := err.(*RateLimitedError)
	if !ok {
		t.Fatalf("third immediate step: got %v, want RateLimitedError", err)
	}
	if limited.RetryAfter <= 0 {
		t.Fatalf("retry-after = %v, want > 0", limited.RetryAfter)
	}
	if got := e.Stats().RateLimited; got != 1 {
		t.Fatalf("rate_limited_total = %d, want 1", got)
	}
	// An unrelated session has its own bucket.
	mustStep(t, e, "b", models.F("order", "time"))
	// Tokens refill: at 20/s one token takes 50ms.
	time.Sleep(80 * time.Millisecond)
	mustStep(t, e, "a", models.F("order", "le-monde"))
}

// TestHTTPRateLimit429 checks the wire mapping: 429 plus a Retry-After
// header on a rate-limited step.
func TestHTTPRateLimit429(t *testing.T) {
	e, err := NewEngine(Config{Shards: 1, SessionRate: 0.5, SessionBurst: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, e)
	var info Info
	if code := call(t, "POST", srv.URL+"/sessions", &OpenRequest{ID: "r", Model: "short"}, &info); code != http.StatusCreated {
		t.Fatalf("open: %d", code)
	}
	in := map[string]any{"input": map[string][][]string{"order": {{"time"}}}}
	if code := call(t, "POST", srv.URL+"/sessions/r/input", in, nil); code != http.StatusOK {
		t.Fatalf("first step: %d", code)
	}
	resp, err := http.Post(srv.URL+"/sessions/r/input", "application/json", jsonBody(t, in))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second step: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestHTTPVerifyAndProgress exercises the verification endpoints end to
// end: reachability flips as the session advances, temporal checks answer
// from the current prefix, progress ranks the exact next payments, and the
// second identical query reports cached=true.
func TestHTTPVerifyAndProgress(t *testing.T) {
	e, err := NewEngine(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, e)
	if code := call(t, "POST", srv.URL+"/sessions", &OpenRequest{ID: "v", Model: "short"}, nil); code != http.StatusCreated {
		t.Fatalf("open: %d", code)
	}
	mustStep(t, e, "v", models.F("order", "time"), models.F("order", "newsweek"))

	verifyURL := srv.URL + "/sessions/v/verify?goal=" + url.QueryEscape("deliver(X)")
	var goal struct {
		Reachable bool `json:"reachable"`
		Cached    bool `json:"cached"`
	}
	if code := call(t, "GET", verifyURL, nil, &goal); code != http.StatusOK {
		t.Fatalf("verify: %d", code)
	}
	if !goal.Reachable || goal.Cached {
		t.Fatalf("verify after step 1: %+v, want reachable, uncached", goal)
	}
	if code := call(t, "GET", verifyURL, nil, &goal); code != http.StatusOK || !goal.Cached {
		t.Fatalf("second verify: code %d, %+v, want cached", code, goal)
	}

	temporalURL := srv.URL + "/sessions/v/verify?temporal=" + url.QueryEscape("deliver(X) => past-order(X)")
	var temp struct {
		Holds bool `json:"holds"`
	}
	if code := call(t, "GET", temporalURL, nil, &temp); code != http.StatusOK {
		t.Fatalf("temporal: %d", code)
	}
	if !temp.Holds {
		t.Fatal("deliver ⊆ past-order should hold of SHORT")
	}

	progURL := srv.URL + "/sessions/v/progress?goal=" + url.QueryEscape("deliver(X)")
	var prog struct {
		Suggestions []struct {
			Input    string `json:"input"`
			Distance int    `json:"distance"`
		} `json:"suggestions"`
		Truncated bool `json:"truncated"`
	}
	if code := call(t, "GET", progURL, nil, &prog); code != http.StatusOK {
		t.Fatalf("progress: %d", code)
	}
	var d1 []string
	for _, s := range prog.Suggestions {
		if s.Distance == 1 {
			d1 = append(d1, s.Input)
		}
	}
	if len(d1) != 2 || d1[0] != "pay(newsweek, 845)" || d1[1] != "pay(time, 855)" {
		t.Fatalf("distance-1 suggestions: %v", d1)
	}

	// limit= truncates and flags it.
	if code := call(t, "GET", progURL+"&limit=1", nil, &prog); code != http.StatusOK {
		t.Fatalf("progress limit: %d", code)
	}
	if len(prog.Suggestions) != 1 || !prog.Truncated {
		t.Fatalf("limited progress: %d suggestions, truncated=%v", len(prog.Suggestions), prog.Truncated)
	}

	// Bad queries are 400s, unknown sessions 404s.
	for _, u := range []string{
		srv.URL + "/sessions/v/verify",
		srv.URL + "/sessions/v/verify?goal=deliver(X&temporal=x",
		srv.URL + "/sessions/v/verify?goal=" + url.QueryEscape("deliver("),
		srv.URL + "/sessions/v/progress",
		srv.URL + "/sessions/v/progress?goal=" + url.QueryEscape("deliver(X)") + "&limit=-1",
	} {
		if code := call(t, "GET", u, nil, nil); code != http.StatusBadRequest {
			t.Errorf("GET %s: %d, want 400", u, code)
		}
	}
	if code := call(t, "GET", srv.URL+"/sessions/nope/verify?goal="+url.QueryEscape("deliver(X)"), nil, nil); code != http.StatusNotFound {
		t.Fatalf("verify of unknown session: want 404")
	}
}

// TestLiveVerifyInputRace is the race-tier check of the live plane: many
// goroutines hammer one session with steps while others verify and ask for
// progress on it concurrently. Run under -race this proves the Peek
// snapshot discipline — no torn reads between the data plane and the
// verification plane. Only expected statuses may appear.
func TestLiveVerifyInputRace(t *testing.T) {
	e, err := NewEngine(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, e)
	if code := call(t, "POST", srv.URL+"/sessions", &OpenRequest{ID: "race", Model: "short"}, nil); code != http.StatusCreated {
		t.Fatalf("open: %d", code)
	}

	products := []string{"time", "newsweek", "le-monde"}
	var wg sync.WaitGroup
	errs := make(chan string, 256)
	post := func(k int) {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			in := map[string]any{"input": map[string][][]string{"order": {{products[(k+i)%3]}}}}
			code := call(t, "POST", srv.URL+"/sessions/race/input", in, nil)
			if code != http.StatusOK && code != http.StatusTooManyRequests {
				errs <- fmt.Sprintf("input: status %d", code)
			}
		}
	}
	get := func(u string) {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			code := call(t, "GET", u, nil, nil)
			if code != http.StatusOK && code != http.StatusTooManyRequests && code != http.StatusGatewayTimeout {
				errs <- fmt.Sprintf("GET %s: status %d", u, code)
			}
		}
	}
	for k := 0; k < 3; k++ {
		wg.Add(3)
		go post(k)
		go get(srv.URL + "/sessions/race/verify?goal=" + url.QueryEscape("deliver(X)"))
		go get(srv.URL + "/sessions/race/progress?goal=" + url.QueryEscape("deliver(X)"))
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
