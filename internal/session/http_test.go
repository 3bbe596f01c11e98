package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/models"
)

func httpServer(t *testing.T) (*Engine, *httptest.Server) {
	t.Helper()
	e, err := NewEngine(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(e))
	t.Cleanup(func() {
		srv.Close()
		e.Shutdown()
	})
	return e, srv
}

// call makes a JSON request and decodes the response into out.
func call(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPFig1 replays the Figure 1 shopping session of SHORT entirely over
// HTTP and checks outputs, per-step log deltas, and the final durable log
// against the offline executor.
func TestHTTPFig1(t *testing.T) {
	_, srv := httpServer(t)
	wantOut, wantLogs := fig1Reference(t)

	var info Info
	if st := call(t, "POST", srv.URL+"/sessions", map[string]string{"model": "short"}, &info); st != http.StatusCreated {
		t.Fatalf("open: status %d", st)
	}
	for i, in := range models.Fig1Inputs() {
		var res StepResult
		st := call(t, "POST", fmt.Sprintf("%s/sessions/%s/input", srv.URL, info.ID), map[string]any{"input": in}, &res)
		if st != http.StatusOK {
			t.Fatalf("step %d: status %d", i+1, st)
		}
		if res.Seq != i+1 || !res.Output.Equal(wantOut[i]) || !res.Log.Equal(wantLogs[i]) {
			t.Errorf("step %d over HTTP diverged: %+v", i+1, res)
		}
	}
	var lr LogResult
	if st := call(t, "GET", fmt.Sprintf("%s/sessions/%s/log", srv.URL, info.ID), nil, &lr); st != http.StatusOK {
		t.Fatalf("log: status %d", st)
	}
	if !lr.Log.Equal(wantLogs) {
		t.Errorf("log over HTTP:\n got %s\nwant %s", lr.Log, wantLogs)
	}
	var cr CloseResult
	if st := call(t, "DELETE", srv.URL+"/sessions/"+info.ID, nil, &cr); st != http.StatusOK {
		t.Fatalf("close: status %d", st)
	}
	if cr.Steps != 3 || !cr.Valid || !cr.Log.Equal(wantLogs) {
		t.Errorf("close result: %+v", cr)
	}
}

func TestHTTPStatusCodes(t *testing.T) {
	_, srv := httpServer(t)
	if st := call(t, "POST", srv.URL+"/sessions", map[string]string{"model": "nope"}, nil); st != http.StatusBadRequest {
		t.Errorf("unknown model: status %d", st)
	}
	if st := call(t, "GET", srv.URL+"/sessions/zzz/log", nil, nil); st != http.StatusNotFound {
		t.Errorf("missing session: status %d", st)
	}
	var info Info
	call(t, "POST", srv.URL+"/sessions", map[string]string{"model": "short", "id": "dup"}, &info)
	if st := call(t, "POST", srv.URL+"/sessions", map[string]string{"model": "short", "id": "dup"}, nil); st != http.StatusConflict {
		t.Errorf("duplicate id: status %d", st)
	}
	if st := call(t, "POST", srv.URL+"/sessions/dup/input", map[string]any{"input": map[string][][]string{"bogus": {{"x"}}}}, nil); st != http.StatusBadRequest {
		t.Errorf("bad input relation: status %d", st)
	}
	if st := call(t, "GET", srv.URL+"/healthz", nil, nil); st != http.StatusOK {
		t.Errorf("healthz: status %d", st)
	}
}

// TestHTTPRejectsNULConstants: a constant holding NUL, the byte tuple keys
// separate constants with, is refused with a 400 wherever an instance is
// decoded — a step's input, an inline database — and nothing is applied.
func TestHTTPRejectsNULConstants(t *testing.T) {
	e, srv := httpServer(t)
	var info Info
	if st := call(t, "POST", srv.URL+"/sessions", map[string]string{"model": "short", "id": "nul"}, &info); st != http.StatusCreated {
		t.Fatalf("open: status %d", st)
	}
	rows := [][]string{{"a\x00b", "c"}, {"a", "b\x00c"}}
	for i := 0; i < 9; i++ {
		rows = append(rows, []string{fmt.Sprint("item-", i), "1"})
	}
	if st := call(t, "POST", srv.URL+"/sessions/nul/input", map[string]any{"input": map[string][][]string{"pay": rows}}, nil); st != http.StatusBadRequest {
		t.Errorf("input with a NUL constant: status %d, want 400", st)
	}
	if lr, err := e.Log("nul"); err != nil || lr.Steps != 0 {
		t.Errorf("after the refused input: %+v, %v — want no step", lr, err)
	}
	db := map[string][][]string{"price": {{"time\x00", "855"}}}
	if st := call(t, "POST", srv.URL+"/sessions", map[string]any{"model": "short", "id": "nuldb", "db": db}, nil); st != http.StatusBadRequest {
		t.Errorf("inline database with a NUL constant: status %d, want 400", st)
	}
}

// TestHTTPStepBodyCap: a single step is held to the 1 MiB data-plane cap,
// while the array form, being a batch, may exceed it.
func TestHTTPStepBodyCap(t *testing.T) {
	e, srv := httpServer(t)
	if _, err := e.Open(&OpenRequest{ID: "cap", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	pad := bytes.Repeat([]byte{' '}, 2<<20) // whitespace: still valid JSON
	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/sessions/cap/input", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	single := append(append([]byte(`{"input":{"order":[["time"]]}`), pad...), '}')
	if st := post(single); st != http.StatusRequestEntityTooLarge {
		t.Errorf("2 MiB single-step body: status %d, want 413", st)
	}
	array := append(append([]byte(`[{"input":{"order":[["time"]]}}`), pad...), ']')
	if st := post(array); st != http.StatusOK {
		t.Errorf("2 MiB array body: status %d, want 200", st)
	}
	if lr, err := e.Log("cap"); err != nil || lr.Steps != 1 {
		t.Fatalf("after both posts: %+v, %v — want the array's one step only", lr, err)
	}
}

// TestHTTPBatchBodyCap: a body over its cap answers 413 on every route, as
// a single step over 1 MiB does: a /batch or array body over 16 MiB, an
// open over 1 MiB. Nothing of a refused body applies.
func TestHTTPBatchBodyCap(t *testing.T) {
	e, srv := httpServer(t)
	if _, err := e.Open(&OpenRequest{ID: "cap", Model: "short"}); err != nil {
		t.Fatal(err)
	}
	pad := string(bytes.Repeat([]byte{' '}, batchBodyCap)) // whitespace inside the value: valid JSON
	for _, c := range []struct{ path, body string }{
		{"/batch", `{"steps":[{"session":"cap","input":{"order":[["time"]]}}]` + pad + `}`},
		{"/sessions/cap/input", `[{"input":{"order":[["time"]]}}` + pad + `]`},
		{"/sessions", `{"model":"short","id":"cap2"` + pad[:bodyCap] + `}`},
	} {
		resp, err := http.Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s of %d bytes: status %d, want 413", c.path, len(c.body), resp.StatusCode)
		}
	}
	if lr, err := e.Log("cap"); err != nil || lr.Steps != 0 {
		t.Errorf("after the refused bodies: %+v, %v — want no step", lr, err)
	}
	if _, err := e.Info("cap2"); err == nil {
		t.Error("the refused open opened its session")
	}
}

func TestHTTPModelsAndSessions(t *testing.T) {
	_, srv := httpServer(t)
	var ms struct {
		Models []string `json:"models"`
	}
	if st := call(t, "GET", srv.URL+"/models", nil, &ms); st != http.StatusOK {
		t.Fatalf("models: status %d", st)
	}
	if len(ms.Models) != len(models.Names()) {
		t.Errorf("models list: %v", ms.Models)
	}
	call(t, "POST", srv.URL+"/sessions", map[string]string{"model": "auction"}, nil)
	call(t, "POST", srv.URL+"/sessions", map[string]string{"model": "short"}, nil)
	var ls struct {
		Sessions []*Info `json:"sessions"`
	}
	if st := call(t, "GET", srv.URL+"/sessions", nil, &ls); st != http.StatusOK || len(ls.Sessions) != 2 {
		t.Errorf("sessions list: status %d, %d sessions", st, len(ls.Sessions))
	}
}

func TestHTTPDebugSurfaces(t *testing.T) {
	_, srv := httpServer(t)
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// TestHTTPOpenRejectsUnbuildableProgram: an inline program whose rules
// cannot become a machine (here an unsafe rule: Y is bound by no positive
// literal) is a 400 at POST /sessions, and nothing is opened or logged —
// there is no second evaluator for a session to limp along on.
func TestHTTPOpenRejectsUnbuildableProgram(t *testing.T) {
	e, srv := httpServer(t)
	const unsafeSrc = `
transducer leaky
schema
  input: order/1;
  output: ship/2;
  log: ship;
output rules
  ship(X,Y) :- order(X);
`
	var out struct {
		Error string `json:"error"`
	}
	if st := call(t, "POST", srv.URL+"/sessions", map[string]string{"id": "leaky-1", "src": unsafeSrc}, &out); st != http.StatusBadRequest {
		t.Fatalf("open with an unsafe rule: status %d, want 400", st)
	}
	if out.Error == "" {
		t.Error("400 carries no error message")
	}
	if st := call(t, "GET", srv.URL+"/sessions/leaky-1", nil, nil); st != http.StatusNotFound {
		t.Errorf("rejected open left a session behind: status %d", st)
	}
	if infos, err := e.List(); err != nil || len(infos) != 0 {
		t.Errorf("rejected open left %d sessions (%v)", len(infos), err)
	}
}
