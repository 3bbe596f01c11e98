package wire

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func testClient(t *testing.T, cfg Config) *Client {
	t.Helper()
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
