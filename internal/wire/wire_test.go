package wire

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func testClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	c := New(cfg)
	t.Cleanup(c.Close)
	return c
}

// TestConnReuse pins the whole point of the shared client: repeated
// requests to one host ride a pooled connection, so dials stay at 1 while
// reuse climbs.
func TestConnReuse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	c := testClient(t, Config{Name: "reuse-test"})
	for i := 0; i < 10; i++ {
		if err := c.GetJSON(context.Background(), srv.URL, nil); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	st := c.Stats()
	if st.Dials != 1 {
		t.Fatalf("dials = %d, want 1 (pooled keep-alive)", st.Dials)
	}
	if st.Reused != 9 {
		t.Fatalf("reused = %d, want 9", st.Reused)
	}
	if st.Requests != 10 {
		t.Fatalf("requests = %d, want 10", st.Requests)
	}
}

// TestRetryOn429 checks the status replay rule: 429/503 mean "not
// applied", so the retry loop runs regardless of idempotency keys, honors
// Retry-After, and counts the cause.
func TestRetryOn429(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "busy"})
			return
		}
		json.NewEncoder(w).Encode(map[string]string{"ok": "yes"})
	}))
	defer srv.Close()
	c := testClient(t, Config{Name: "retry-test"})
	var out map[string]string
	if err := c.PostBytesRetry(context.Background(), srv.URL, "application/json", []byte(`{"x":1}`), &out, nil); err != nil {
		t.Fatalf("post: %v", err)
	}
	if out["ok"] != "yes" {
		t.Fatalf("out = %v", out)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("calls = %d, want 3", got)
	}
	if st := c.Stats(); st.Retries["429"] != 2 {
		t.Fatalf("retries = %v, want 429:2", st.Retries)
	}
}

// TestTransportRetryNeedsKey checks the ambiguous-failure rule: a dead
// connection is retried only when the request carries an Idempotency-Key.
func TestTransportRetryNeedsKey(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Kill the connection mid-response: a transport error client-side.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		json.NewEncoder(w).Encode(map[string]string{"ok": "yes"})
	}))
	defer srv.Close()

	unkeyed := testClient(t, Config{Name: "transport-unkeyed"})
	err := unkeyed.PostBytesRetry(context.Background(), srv.URL, "application/json", nil, nil, nil)
	if err == nil {
		t.Fatal("unkeyed transport failure should not be retried")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("calls after unkeyed = %d, want 1", got)
	}

	calls.Store(0)
	keyed := testClient(t, Config{Name: "transport-keyed"})
	hdr := http.Header{}
	hdr.Set("Idempotency-Key", "k1")
	var out map[string]string
	if err := keyed.PostBytesRetry(context.Background(), srv.URL, "application/json", nil, &out, hdr); err != nil {
		t.Fatalf("keyed retry: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("calls after keyed = %d, want 2", got)
	}
	if st := keyed.Stats(); st.Retries["transport"] != 1 {
		t.Fatalf("retries = %v, want transport:1", st.Retries)
	}
}

// TestStatusError checks non-2xx decoding into StatusError.
func TestStatusError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": "no session x"})
	}))
	defer srv.Close()
	c := testClient(t, Config{Name: "status-test"})
	err := c.PostJSON(context.Background(), srv.URL, nil, nil, nil)
	if !IsStatus(err, http.StatusNotFound) {
		t.Fatalf("err = %v, want 404 StatusError", err)
	}
	if Retryable(err) {
		t.Fatalf("404 must not be retryable")
	}
}

// TestBatchHistogram checks the batch-size accounting.
func TestBatchHistogram(t *testing.T) {
	c := testClient(t, Config{Name: "batch-test"})
	for _, n := range []int{1, 4, 4, 64} {
		c.ObserveBatch(n)
	}
	st := c.Stats()
	if st.Batches != 4 || st.BatchItems != 73 {
		t.Fatalf("batches=%d items=%d, want 4/73", st.Batches, st.BatchItems)
	}
	if st.BatchMax != 64 {
		t.Fatalf("max=%d, want 64", st.BatchMax)
	}
	if st.BatchP50 < 4 || st.BatchP50 > 8 {
		t.Fatalf("p50=%d, want bucket around 4", st.BatchP50)
	}
}
