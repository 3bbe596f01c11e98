package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/relation"
	"repro/internal/session"
)

// The data plane reads each /batch envelope once: the router scans it for
// routing fields and item spans, the backend decodes it straight into
// items. encoding/json is the oracle: whatever it accepts, with the values
// it gives, is the contract.

// rawBatchRequest is the shape the router decoded envelopes into before it
// scanned them: routing fields plus each input as raw JSON.
type rawBatchRequest struct {
	Steps []struct {
		Session string          `json:"session"`
		Key     string          `json:"key,omitempty"`
		Input   json.RawMessage `json:"input,omitempty"`
	} `json:"steps"`
	Results string `json:"results,omitempty"`
}

// hostileEnvelopes are /batch bodies encoding/json reads in ways a naive
// reader would not: escapes, NUL, bad UTF-8, repeated and case-folded keys,
// unknown fields nested deep, numbers and nulls where strings belong, and
// bytes after the envelope.
var hostileEnvelopes = []string{
	`{"steps":[{"session":"dp-2","key":"ké😀","input":{"order":[["time"]]}}]}`,
	`{"steps":[{"session":"dp-3","input":{"order":[["café"],["\ud800"],["tab\tin"]]}}]}`,
	"{\"steps\":[{\"session\":\"dp-1\",\"input\":{\"order\":[[\"\xff\xfe\"]]}}]}",
	`{"steps":[{"session":"dp-2","input":{"order":[["a\u0000b"]]}}]}`,
	`{"STEPS":[{"Session":"dp-1","KEY":"k2","Input":{"order":[["newsweek"]]}}],"Results":"full"}`,
	`{"ſteps":[{"ſession":"dp-1","Key":"k5"}]}`,
	`{"steps":[{"session":"dp-9","session":"dp-2","input":{"order":[["x"]]},"input":{"order":[["time"]]}}]}`,
	`{"steps":[{"session":"dp-1","key":"k3"},{"session":"dp-2"}],"steps":[{"input":{"order":[["time"]]}}]}`,
	`{"steps":[{"session":"dp-1"},{"session":"dp-2","key":"k4"}],"steps":[{"session":"dp-3"}],"steps":[{},{}]}`,
	`{"steps":[{"session":"dp-1"}],"steps":null,"steps":[{"key":"k6"}]}`,
	`{"steps":[{"session":"dp-1"}],"steps":[],"steps":[null]}`,
	`{"trace":{"a":[[[[{"b":null,"c":[1.5e-3,true,false,"\"]"]}]]]]},"steps":[{"session":"dp-1","meta":[1,2,{"x":"y"}],"input":{"order":[["time"]]}}]}`,
	`{"x":` + strings.Repeat(`[`, 9999) + strings.Repeat(`]`, 9999) + `,"steps":[{"session":"dp-3"}]}`,
	`{"x":` + strings.Repeat(`[`, 10001) + strings.Repeat(`]`, 10001) + `,"steps":[{"session":"dp-3"}]}`,
	`{"steps":[null,{"session":"dp-2","key":null,"input":null}],"results":null}`,
	`{"steps":[{"session":"dp-1","input":{"order":null,"pay":[null]}}]}`,
	`{"steps":[{"session":"dp-3","input":{"order":[["time"]]}}]} trailing {"garbage"`,
	`{"steps":[{"session":1}]}`,
	`{"steps":[{"session":"dp-1","key":2}]}`,
	`{"steps":[{"session":"dp-1","input":{"order":[[1]]}}]}`,
	`{"steps":[{"session":"dp-1","input":[]}]}`,
	`{"steps":[{"session":"dp-1","input":5}]}`,
	`{"steps":{"session":"dp-1"}}`,
	`{"steps":["dp-1"]}`,
	`{"steps":[{"session":"dp-1"}],"results":5}`,
	`{"steps":[{"session":"dp-1"}],"results":"bogus"}`,
	`{"steps":[{"session":"dp-1"}],"results":"errors"}`,
	`{"steps":[],"results":"errors"}`,
	`{}`, `null`, `null x`, `nullx`, `[]`, `"steps"`, `5`, ``, `{`, `{"steps":[{"session":"dp-1"},]}`,
	`{"steps":[{"session":"dp-1"} {"session":"dp-2"}]}`, `{"steps":[{"session":"dp-1\x"}]}`,
	"{\"steps\":[{\"session\":\"dp-\x01\"}]}",
}

// envelopeSeeds are the bodies the data plane's tests and CI smokes send,
// then the hostile ones.
func envelopeSeeds() []string {
	in := models.Fig1Inputs()
	seeds := []string{
		`{"steps":[{"session":"ci-bb","input":{"order":[["newsweek"]]}},{"session":"ci-ghost","input":{}}]}`,
		`{"steps":[{"session":"ci-bb","input":{"pay":[["newsweek","845"]]}}],"results":"errors"}`,
		`{"steps":[{"session":"ci-ba","key":"k1","input":{"order":[["time"]]}}]}`,
	}
	for _, req := range []session.BatchRequest{
		{Steps: []session.BatchItem{{Session: "a", Input: in[2]}, {Session: "ghost", Input: in[0]},
			{Session: "b", Key: "bk", Input: in[0]}, {Session: "b", Key: "bk", Input: in[1]}}},
		{Results: "errors", Steps: []session.BatchItem{{Session: "a", Input: in[0]}, {Session: "ghost", Input: in[0]}}},
		{Results: "verbose", Steps: []session.BatchItem{{Session: "a", Input: in[0]}}},
		{Steps: []session.BatchItem{{Session: "rb-00", Key: "key-0", Input: orderInstance("newsweek")}, {Session: "rb-ghost"}}},
		{},
	} {
		b, _ := json.Marshal(req)
		seeds = append(seeds, string(b))
	}
	for _, s := range hostileEnvelopes {
		// The nesting-limit cases stay in the table test: as seeds they
		// slow every mutation of themselves.
		if len(s) < 4096 {
			seeds = append(seeds, s)
		}
	}
	return seeds
}

// oracleBatch is what the backend decoded before: encoding/json's Decoder
// into a BatchRequest.
func oracleBatch(b []byte) (session.BatchRequest, error) {
	var req session.BatchRequest
	err := json.NewDecoder(bytes.NewReader(b)).Decode(&req)
	return req, err
}

// sameItems reports whether two decoded item lists agree: nil or empty
// alike, and item by item the same session, key and input (relation
// names, arities and tuples; an absent input apart from an empty one).
func sameItems(a, b []session.BatchItem) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Session != y.Session || x.Key != y.Key || (x.Input == nil) != (y.Input == nil) ||
			len(x.Input) != len(y.Input) || !x.Input.Equal(y.Input) {
			return false
		}
		for name, r := range x.Input {
			if s, ok := y.Input[name]; !ok || s.Arity() != r.Arity() {
				return false
			}
		}
	}
	return true
}

// FuzzBatchEnvelope differentially checks the data plane's two envelope
// readers against encoding/json, and the router's splice against the
// backend: the backend's one-pass decode gives what the Decoder gives into
// a BatchRequest; the router's scan gives the (session, key) list the
// Decoder gives into the raw shape it replaced; and a sub-batch spliced
// from the client's bytes decodes, at the backend, to the client's items.
func FuzzBatchEnvelope(f *testing.F) {
	for _, s := range envelopeSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantErr := oracleBatch(b)
		got, err := session.DecodeBatch(b)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: backend decode error %v, encoding/json %v", b, err, wantErr)
		}
		if err == nil && (got.Results != want.Results || !sameItems(got.Steps, want.Steps)) {
			t.Fatalf("%q: backend decoded %+v, encoding/json %+v", b, got, want)
		}

		var raw rawBatchRequest
		rawErr := json.NewDecoder(bytes.NewReader(b)).Decode(&raw)
		items, mode, scanErr := scanBatch(b)
		if (scanErr == nil) != (rawErr == nil) {
			t.Fatalf("%q: router scan error %v, encoding/json %v", b, scanErr, rawErr)
		}
		if scanErr != nil {
			return
		}
		if mode != raw.Results || len(items) != len(raw.Steps) || (items == nil) != (raw.Steps == nil) {
			t.Fatalf("%q: router scan read %d items, mode %q; encoding/json %d, %q", b, len(items), mode, len(raw.Steps), raw.Results)
		}
		for i, it := range items {
			if it.session != raw.Steps[i].Session || it.key != raw.Steps[i].Key {
				t.Fatalf("%q: item %d routes as (%q, %q), encoding/json reads (%q, %q)",
					b, i, it.session, it.key, raw.Steps[i].Session, raw.Steps[i].Key)
			}
		}
		if err != nil || len(items) == 0 {
			return // the client's own envelope does not decode at a backend
		}
		switch mode {
		case "", "full", "status", "errors":
		default:
			mode = ""
		}
		// Every position in one sub-batch, then the odd positions alone.
		var all, odd []int
		for i := range items {
			if all = append(all, i); i%2 == 1 {
				odd = append(odd, i)
			}
		}
		for _, positions := range [][]int{all, odd} {
			if len(positions) == 0 {
				continue
			}
			body := spliceBatch(b, items, positions, mode)
			sub, err := session.DecodeBatch(body)
			if err != nil {
				t.Fatalf("%q: spliced sub-batch %q does not decode: %v", b, body, err)
			}
			wantSub := make([]session.BatchItem, len(positions))
			for j, pos := range positions {
				wantSub[j] = got.Steps[pos]
			}
			if sub.Results != mode || !sameItems(sub.Steps, wantSub) {
				t.Fatalf("%q: spliced sub-batch %q decodes to %+v, want %+v", b, body, sub.Steps, wantSub)
			}
		}
	})
}

// TestDataPlaneDecodeMatchesEncodingJSON drives the hostile envelopes
// through a real router and its backends, beside a reference engine that
// applies exactly the items encoding/json decodes from each envelope. Each
// case must answer the same per-item statuses and leave the same logs, and
// so must its replay (which checks the keys: a keyed item replays as a
// duplicate). An envelope encoding/json refuses is the router's own 400,
// and one whose inputs only the backend refuses fails its sub-batch.
func TestDataPlaneDecodeMatchesEncodingJSON(t *testing.T) {
	tc := newTestCluster(t, 3)
	ref, err := session.NewEngine(session.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Shutdown() })
	ids := []string{"dp-1", "dp-2", "dp-3"}
	for _, id := range ids {
		if st := postJSON(t, tc.front.URL+"/sessions", map[string]string{"id": id, "model": "short"}, nil); st != http.StatusCreated {
			t.Fatalf("open %s: status %d", id, st)
		}
		if _, err := ref.Open(&session.OpenRequest{ID: id, Model: "short"}); err != nil {
			t.Fatal(err)
		}
	}
	post := func(body string) (int, []session.BatchItemStatus) {
		resp, err := http.Post(tc.front.URL+"/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var br session.BatchResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, positional(br)
	}
	for n, body := range hostileEnvelopes {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			var raw rawBatchRequest
			rawErr := json.NewDecoder(strings.NewReader(body)).Decode(&raw)
			want, wantErr := oracleBatch([]byte(body))
			mode := want.Results
			switch {
			case rawErr != nil || len(raw.Steps) == 0 ||
				(raw.Results != "" && raw.Results != "full" && raw.Results != "status" && raw.Results != "errors"):
				if st, _ := post(body); st != http.StatusBadRequest {
					t.Fatalf("%q: status %d, want the router's 400", body, st)
				}
			case wantErr != nil:
				// The router forwards what it cannot judge: the backend
				// refuses the item's sub-batch, and nothing applies.
				if len(raw.Steps) != 1 {
					t.Fatalf("%q: a case the backend refuses must hold one item", body)
				}
				if st, res := post(body); st != http.StatusOK || len(res) != 1 || res[0].Status != http.StatusBadGateway {
					t.Fatalf("%q: status %d, items %+v; want the one item refused with 502", body, st, res)
				}
			default:
				for replay := 0; replay < 2; replay++ {
					st, res := post(body)
					items := append([]session.BatchItem(nil), want.Steps...)
					for i := range items {
						if items[i].Input == nil {
							items[i].Input = relation.NewInstance()
						}
					}
					wantRes := ref.InputBatch(items)
					if st != http.StatusOK || len(res) != len(wantRes) {
						t.Fatalf("%q: status %d, %d items; want 200, %d", body, st, len(res), len(wantRes))
					}
					for i, w := range wantRes {
						sameStatus(t, body, i, mode, res[i], w)
					}
				}
			}
			for _, id := range ids {
				var lr session.LogResult
				if st := getJSON(t, tc.front.URL+"/sessions/"+id+"/log", &lr); st != http.StatusOK {
					t.Fatalf("log %s: status %d", id, st)
				}
				wantLog, err := ref.Log(id)
				if err != nil {
					t.Fatal(err)
				}
				if lr.Steps != wantLog.Steps || !lr.Log.Equal(wantLog.Log) {
					t.Fatalf("%q: %s's log is %v, the reference's %v", body, id, lr.Log, wantLog.Log)
				}
			}
		})
	}
}

// positional turns either response shape into per-item statuses (an
// errors-mode envelope lists only its failures).
func positional(br session.BatchResponse) []session.BatchItemStatus {
	if br.Results != nil || br.N == 0 {
		return br.Results
	}
	out := make([]session.BatchItemStatus, br.N)
	for i := range out {
		out[i].Status = http.StatusOK
	}
	for _, f := range br.Failed {
		out[f.Pos] = session.BatchItemStatus{Status: f.Status, Error: f.Error}
	}
	return out
}

func sameStatus(t *testing.T, body string, i int, mode string, got session.BatchItemStatus, want session.BatchResult) {
	t.Helper()
	if want.Err != nil {
		if got.Status/100 == 2 {
			t.Fatalf("%q item %d: applied, the reference refused it: %v", body, i, want.Err)
		}
		return
	}
	if got.Status != http.StatusOK {
		t.Fatalf("%q item %d: status %d (%s), the reference applied it", body, i, got.Status, got.Error)
	}
	if mode == "errors" {
		return
	}
	g, w := got.Result, want.Result
	if g == nil || g.ID != w.ID || g.Seq != w.Seq || g.Duplicate != w.Duplicate || g.Valid != w.Valid {
		t.Fatalf("%q item %d: result %+v, the reference's %+v", body, i, g, w)
	}
	if mode == "" || mode == "full" {
		if !g.Output.Equal(w.Output) || !g.Log.Equal(w.Log) {
			t.Fatalf("%q item %d: result %+v, the reference's %+v", body, i, g, w)
		}
	}
}

// TestBatchEnvelopeAllocates pins what reading a 64-item envelope of
// SHORT-family inputs allocates, on the backend's decode and on the
// router's scan.
func TestBatchEnvelopeAllocates(t *testing.T) {
	in := models.Fig1Inputs()
	var req session.BatchRequest
	req.Results = "errors"
	for i := 0; i < 64; i++ {
		req.Steps = append(req.Steps, session.BatchItem{
			Session: fmt.Sprintf("bench-%06d", i), Key: fmt.Sprintf("k-%06d", i), Input: in[i%len(in)]})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		read    func() error
		ceiling float64
	}{
		{"backend decode", func() error { _, err := session.DecodeBatch(body); return err }, backendDecodeAllocs},
		{"router scan", func() error { _, _, err := scanBatch(body); return err }, routerScanAllocs},
	} {
		if err := c.read(); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(50, func() { c.read() })
		t.Logf("%s: %.0f allocs per 64-item envelope (ceiling %.0f)", c.name, got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("%s allocates %.0f times per 64-item envelope, over the ceiling of %.0f", c.name, got, c.ceiling)
		}
	}
}

// The ceilings of TestBatchEnvelopeAllocates, as measured. The backend
// builds each item's session and key strings and its instance (map,
// relation names, relations, tuples, constants): 13.8 allocations an item.
// The router copies out only each item's session and key. The
// encoding/json Decoder paths they replaced allocated 1,879 and 218 on
// the same envelope (and the router then re-marshalled each share).
const (
	backendDecodeAllocs = 882
	routerScanAllocs    = 137
)
