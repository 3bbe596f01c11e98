package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/models"
	"repro/internal/session"
)

// A network session clusters as one unit: its ID hashes to one backend
// that owns every member node, and handoff moves the whole network — spec,
// per-node states, delay buffer, and joint log — in either transport.

func jointJSONBytes(t *testing.T, joint []session.JointLogEntry) string {
	t.Helper()
	data, err := json.Marshal(joint)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRouterNetworkSession: open a generated network through the router,
// step it with node-addressed and joint-step inputs, and read the joint
// log back — end to end over the wire.
func TestRouterNetworkSession(t *testing.T) {
	tc := newTestCluster(t, 3)
	id := "net-route-1"
	open := map[string]any{"id": id, "network": models.Network("marketplace")}
	if st := postJSON(t, tc.front.URL+"/sessions", open, nil); st != http.StatusCreated {
		t.Fatalf("open network via router: status %d", st)
	}
	// The network lives on exactly one backend.
	homes := 0
	for _, b := range tc.backends {
		if getJSON(t, b.URL+"/sessions/"+id, nil) == http.StatusOK {
			homes++
		}
	}
	if homes != 1 {
		t.Fatalf("network session has %d homes, want 1", homes)
	}
	for i, ext := range models.NetworkScript("marketplace", "widget") {
		var res session.StepResult
		if st := postJSON(t, tc.front.URL+"/sessions/"+id+"/input", map[string]any{"inputs": ext}, &res); st != http.StatusOK {
			t.Fatalf("joint step %d via router: status %d", i+1, st)
		}
		if res.Seq != i+1 {
			t.Fatalf("joint step %d: seq %d", i+1, res.Seq)
		}
	}
	var lr session.LogResult
	if st := getJSON(t, tc.front.URL+"/sessions/"+id+"/log", &lr); st != http.StatusOK {
		t.Fatalf("joint log via router: status %d", st)
	}
	if len(lr.Joint) != 7 {
		t.Fatalf("joint log has %d entries, want 7", len(lr.Joint))
	}
	// /networks answers through the router.
	var nets struct {
		Networks []string `json:"networks"`
	}
	if st := getJSON(t, tc.front.URL+"/networks", &nets); st != http.StatusOK || len(nets.Networks) < 3 {
		t.Fatalf("GET /networks via router: status %d, %v", st, nets.Networks)
	}
}

// TestRouterNetworkHandoff moves a live network session between backends,
// asserting the joint log survives bit-for-bit and the network keeps
// stepping on its new owner.
func TestRouterNetworkHandoff(t *testing.T) {
	tc := newTestCluster(t, 3)
	id := "net-handoff"
	script := models.NetworkScript("fraud", "gadget")
	postJSON(t, tc.front.URL+"/sessions", map[string]any{"id": id, "network": models.Network("fraud")}, nil)
	for _, ext := range script[:4] {
		if st := postJSON(t, tc.front.URL+"/sessions/"+id+"/input", map[string]any{"inputs": ext}, nil); st != http.StatusOK {
			t.Fatalf("pre-handoff step: status %d", st)
		}
	}
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
		t.Fatalf("network handoff: status %d", st)
	}
	if res.From != from || res.To != to || res.Steps != 4 {
		t.Fatalf("network handoff result %+v, want %s → %s, 4 steps", res, from, to)
	}
	if st := getJSON(t, from+"/sessions/"+id, nil); st != http.StatusNotFound {
		t.Fatalf("source still serves the network: status %d", st)
	}

	var after session.LogResult
	if st := getJSON(t, tc.front.URL+"/sessions/"+id+"/log", &after); st != http.StatusOK {
		t.Fatalf("joint log after handoff: status %d", st)
	}
	if jointJSONBytes(t, after.Joint) != jointJSONBytes(t, before.Joint) {
		t.Fatalf("handoff changed the joint log:\n got %s\nwant %s",
			jointJSONBytes(t, after.Joint), jointJSONBytes(t, before.Joint))
	}

	// The moved network keeps stepping: finish the conversation.
	for i, ext := range script[4:] {
		var step session.StepResult
		if st := postJSON(t, tc.front.URL+"/sessions/"+id+"/input", map[string]any{"inputs": ext}, &step); st != http.StatusOK {
			t.Fatalf("post-handoff step: status %d", st)
		}
		if step.Seq != 5+i {
			t.Fatalf("post-handoff seq %d, want %d", step.Seq, 5+i)
		}
	}
	var final session.LogResult
	getJSON(t, tc.front.URL+"/sessions/"+id+"/log", &final)
	if len(final.Joint) != len(script) {
		t.Fatalf("final joint log has %d entries, want %d", len(final.Joint), len(script))
	}
}
