package cluster

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/session"
)

// Tests for the router's batch fan-out: a multi-session POST /batch is
// split by ring owner, one sub-batch per backend, and the per-item
// statuses come back positionally — including per-item failures for
// unroutable or unknown sessions, which never disturb their neighbors.

// TestRouterBatchFanout opens sessions across all backends and drives them
// with one /batch request holding a step per session plus a missing
// session and an invalid input. Every good item applies on its ring owner;
// the bad items fail with their own statuses.
func TestRouterBatchFanout(t *testing.T) {
	tc := newTestCluster(t, 3)
	const n = 12
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("rb-%02d", i)
		if st := postJSON(t, tc.front.URL+"/sessions", map[string]string{"id": ids[i], "model": "short"}, nil); st != http.StatusCreated {
			t.Fatalf("open %s: status %d", ids[i], st)
		}
	}
	// Count distinct owners so the fan-out assertion below isn't vacuous.
	owners := map[string]bool{}
	for _, id := range ids {
		addr, err := tc.router.Ring().Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		owners[addr] = true
	}
	if len(owners) < 2 {
		t.Fatalf("want sessions spread over >1 backend, got %d", len(owners))
	}

	reqsBefore := tc.router.m.batchRequests.Load()
	fanoutsBefore := tc.router.m.batchFanouts.Load()

	var steps []session.BatchItem
	for i, id := range ids {
		steps = append(steps, session.BatchItem{Session: id, Key: fmt.Sprintf("key-%d", i), Input: orderInstance("newsweek")})
	}
	steps = append(steps, session.BatchItem{Session: "rb-ghost", Input: steps[0].Input})

	var br session.BatchResponse
	if st := postJSON(t, tc.front.URL+"/batch", session.BatchRequest{Steps: steps}, &br); st != http.StatusOK {
		t.Fatalf("/batch: status %d", st)
	}
	if len(br.Results) != len(steps) {
		t.Fatalf("/batch answered %d results for %d steps", len(br.Results), len(steps))
	}
	for i := 0; i < n; i++ {
		r := br.Results[i]
		if r.Status != http.StatusOK || r.Result == nil || r.Result.ID != ids[i] || r.Result.Seq != 1 {
			t.Errorf("item %d (%s): %+v", i, ids[i], r)
		}
	}
	if g := br.Results[n]; g.Status != http.StatusNotFound || g.Error == "" {
		t.Errorf("ghost item: %+v, want per-item 404", g)
	}

	if got := tc.router.m.batchRequests.Load(); got != reqsBefore+1 {
		t.Errorf("batch_requests_total: %d, want %d", got, reqsBefore+1)
	}
	if got := tc.router.m.batchFanouts.Load() - fanoutsBefore; got < int64(len(owners)) {
		t.Errorf("batch_fanouts_total grew by %d, want ≥ %d (one sub-batch per owner)", got, len(owners))
	}

	// Replaying the same batch (same keys) dedupes per item through the
	// router: every keyed step answers Duplicate at its original seq.
	br = session.BatchResponse{}
	if st := postJSON(t, tc.front.URL+"/batch", session.BatchRequest{Steps: steps}, &br); st != http.StatusOK {
		t.Fatalf("replayed /batch: status %d", st)
	}
	for i := 0; i < n; i++ {
		r := br.Results[i]
		if r.Status != http.StatusOK || r.Result == nil || !r.Result.Duplicate || r.Result.Seq != 1 {
			t.Errorf("replayed item %d: %+v, want duplicate of seq 1", i, r)
		}
	}

	// The steps landed on the owners, visible through the router.
	for _, id := range ids {
		var lr session.LogResult
		if st := getJSON(t, tc.front.URL+"/sessions/"+id+"/log", &lr); st != http.StatusOK || lr.Steps != 1 {
			t.Errorf("log %s: status %d steps %d", id, st, lr.Steps)
		}
	}

	// results=errors through the router: the sparse shape merges across
	// sub-batches — the count acknowledges every item, and the only failure
	// listed is the ghost at its envelope position.
	var sp session.BatchResponse
	var sparse []session.BatchItem
	for i, id := range ids {
		sparse = append(sparse, session.BatchItem{Session: id, Key: fmt.Sprintf("ekey-%d", i), Input: orderInstance("le-monde")})
	}
	sparse = append(sparse, session.BatchItem{Session: "rb-ghost", Input: sparse[0].Input})
	if st := postJSON(t, tc.front.URL+"/batch", session.BatchRequest{Steps: sparse, Results: "errors"}, &sp); st != http.StatusOK {
		t.Fatalf("sparse /batch: status %d", st)
	}
	if sp.Results != nil || sp.N != len(sparse) || sp.OK() {
		t.Fatalf("sparse /batch: n %d results %+v failed %+v", sp.N, sp.Results, sp.Failed)
	}
	if len(sp.Failed) != 1 || sp.Failed[0].Pos != n || sp.Failed[0].Status != http.StatusNotFound {
		t.Errorf("sparse failed list: %+v, want only the ghost at pos %d", sp.Failed, n)
	}
	for _, id := range ids {
		var lr session.LogResult
		if st := getJSON(t, tc.front.URL+"/sessions/"+id+"/log", &lr); st != http.StatusOK || lr.Steps != 2 {
			t.Errorf("log %s after sparse batch: status %d steps %d", id, st, lr.Steps)
		}
	}
}

// TestRouterBatchDownOwner kills one backend and batches across every
// session: items owned by the dead backend fail per-item with 503, items
// on survivors keep applying in the same request.
func TestRouterBatchDownOwner(t *testing.T) {
	tc := newTestCluster(t, 3)
	const n = 18
	ids := make([]string, n)
	owner := make(map[string]string)
	for i := range ids {
		ids[i] = fmt.Sprintf("rbd-%02d", i)
		if st := postJSON(t, tc.front.URL+"/sessions", map[string]string{"id": ids[i], "model": "short"}, nil); st != http.StatusCreated {
			t.Fatalf("open %s: status %d", ids[i], st)
		}
		addr, err := tc.router.Ring().Lookup(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		owner[ids[i]] = addr
	}

	victim := tc.backends[0].URL
	tc.backends[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	for tc.router.Ring().Up(victim) {
		if time.Now().After(deadline) {
			t.Fatal("router never marked the dead backend down")
		}
		time.Sleep(10 * time.Millisecond)
	}

	var steps []session.BatchItem
	for _, id := range ids {
		steps = append(steps, session.BatchItem{Session: id, Input: orderInstance("time")})
	}
	var br session.BatchResponse
	if st := postJSON(t, tc.front.URL+"/batch", session.BatchRequest{Steps: steps}, &br); st != http.StatusOK {
		t.Fatalf("/batch with a down owner: status %d", st)
	}
	served, refused := 0, 0
	for i, id := range ids {
		r := br.Results[i]
		if owner[id] == victim {
			if r.Status != http.StatusServiceUnavailable {
				t.Errorf("item %s on dead owner: %+v, want per-item 503", id, r)
			}
			refused++
			continue
		}
		if r.Status != http.StatusOK || r.Result == nil || r.Result.Seq != 1 {
			t.Errorf("item %s on survivor: %+v", id, r)
		}
		served++
	}
	if served == 0 || refused == 0 {
		t.Fatalf("vacuous down-owner test: %d served, %d refused", served, refused)
	}
}

// TestRouterBodyCap: a body over the router's cap answers 413, as the
// backend would answer it: a /batch over 16 MiB, and an open or a keyed
// step (the bodies the router reads itself) over 1 MiB. Nothing applies.
func TestRouterBodyCap(t *testing.T) {
	tc := newTestCluster(t, 2)
	if st := postJSON(t, tc.front.URL+"/sessions", map[string]string{"id": "cap", "model": "short"}, nil); st != http.StatusCreated {
		t.Fatalf("open: status %d", st)
	}
	pad := strings.Repeat(" ", 16<<20) // whitespace inside the value: valid JSON
	for _, c := range []struct{ path, key, body string }{
		{"/batch", "", `{"steps":[{"session":"cap","input":{"order":[["time"]]}}]` + pad + `}`},
		{"/sessions/cap/input", "k1", `{"input":{"order":[["time"]]}` + pad[:1<<20] + `}`},
		{"/sessions", "", `{"model":"short","id":"cap2"` + pad[:1<<20] + `}`},
	} {
		req, err := http.NewRequest(http.MethodPost, tc.front.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if c.key != "" {
			req.Header.Set("Idempotency-Key", c.key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s of %d bytes: status %d, want 413", c.path, len(c.body), resp.StatusCode)
		}
	}
	var lr session.LogResult
	if st := getJSON(t, tc.front.URL+"/sessions/cap/log", &lr); st != http.StatusOK || lr.Steps != 0 {
		t.Errorf("after the refused bodies: status %d, %d steps — want none", st, lr.Steps)
	}
	if st := getJSON(t, tc.front.URL+"/sessions/cap2", nil); st != http.StatusNotFound {
		t.Errorf("the refused open: GET status %d, want 404", st)
	}
}
