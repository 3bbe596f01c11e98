package session

import (
	"encoding/json"
	"net/http"

	"repro/internal/relation"
)

// The batched HTTP surface. One entry, serveBatch, feeds Engine.InputBatch;
// two request shapes reach it:
//
//	POST /batch                many sessions at once:
//	                           {"steps":[{"session":"s1","input":{...},"key":"..."}]}
//	POST /sessions/{id}/input  with a JSON ARRAY body — sugar for a batch
//	                           whose items all name {id}:
//	                           [{"input":{...},"key":"..."}, ...]
//
// Both answer 200 with positional per-item statuses; an item's failure
// never fails its neighbors (the response status is 200 even when every
// item failed — the envelope, not the item, succeeded). Atomicity is the
// group-commit boundary: all 200 items of one response were durable
// before the response was sent, and one session's items occupy one
// all-or-nothing WAL record.

// Request body caps: bodyCap for every data-plane request that is not a
// batch (one step, one open); batchBodyCap far above it — a batch is many
// steps — but still bounded.
const (
	bodyCap      = 1 << 20
	batchBodyCap = 16 << 20
)

// BatchRequest is the wire envelope of POST /batch. Results selects how
// much of each item's outcome travels back: "full" (default) carries the
// whole StepResult; "status" strips outputs and log deltas down to
// {id, seq, valid, duplicate}; "errors" inverts the shape — the response
// counts the envelope and lists ONLY the items that failed, so an all-OK
// batch acks with a constant-size body. Each step leftward is a cheaper
// wire for a driver that needs acks, not outputs.
type BatchRequest struct {
	Steps   []BatchItem `json:"steps"`
	Results string      `json:"results,omitempty"`
}

// BatchItemStatus is one item's outcome on the wire: the HTTP status the
// single-step path would have answered, plus the step result (2xx) or the
// error message (4xx/5xx).
type BatchItemStatus struct {
	Status int         `json:"status"`
	Error  string      `json:"error,omitempty"`
	Result *StepResult `json:"result,omitempty"`
}

// BatchFailure is one failed item in results=errors mode: its position in
// the request envelope plus the status the positional response would have
// carried at that slot.
type BatchFailure struct {
	Pos    int    `json:"pos"`
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
}

// BatchResponse is the wire envelope of a batch response. In the
// positional modes ("", "full", "status") Results lines up with the
// request's items. In errors mode Results is absent: N acknowledges how
// many items the envelope carried and Failed lists only the ones that did
// not apply.
type BatchResponse struct {
	Results []BatchItemStatus `json:"results,omitempty"`
	N       int               `json:"n,omitempty"`
	Failed  []BatchFailure    `json:"failed,omitempty"`
}

// OK reports whether every item succeeded, in either response shape.
func (r *BatchResponse) OK() bool {
	if r.Results == nil {
		return len(r.Failed) == 0
	}
	for i := range r.Results {
		if r.Results[i].Status/100 != 2 {
			return false
		}
	}
	return true
}

func batchStatusOf(res BatchResult) BatchItemStatus {
	if res.Err != nil {
		status, _ := errStatus(res.Err)
		return BatchItemStatus{Status: status, Error: res.Err.Error()}
	}
	return BatchItemStatus{Status: http.StatusOK, Result: res.Result}
}

// serveBatch validates a decoded batch — at least one item, a known results
// mode, absent inputs read as empty — runs it, and writes the response.
func serveBatch(e *Engine, w http.ResponseWriter, items []BatchItem, mode string) {
	if len(items) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "batch needs at least one step"})
		return
	}
	switch mode {
	case "", "full", "status", "errors":
	default:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "results must be \"full\", \"status\" or \"errors\""})
		return
	}
	for i := range items {
		if items[i].Input == nil {
			items[i].Input = relation.NewInstance()
		}
	}
	results := e.InputBatch(items)
	// Compact encoding: batch responses are the data plane's hot path, and
	// indentation costs real encode/decode CPU at thousands of items/s.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if mode == "errors" {
		resp := BatchResponse{N: len(results)}
		for i, res := range results {
			if res.Err != nil {
				status, _ := errStatus(res.Err)
				resp.Failed = append(resp.Failed, BatchFailure{Pos: i, Status: status, Error: res.Err.Error()})
			}
		}
		json.NewEncoder(w).Encode(resp)
		return
	}
	out := make([]BatchItemStatus, len(results))
	for i, res := range results {
		out[i] = batchStatusOf(res)
		if mode == "status" && out[i].Result != nil {
			r := out[i].Result
			out[i].Result = &StepResult{ID: r.ID, Seq: r.Seq, Valid: r.Valid, Duplicate: r.Duplicate}
		}
	}
	json.NewEncoder(w).Encode(BatchResponse{Results: out})
}

// handleBatch serves POST /batch: multi-session (session, input, key)
// groups in one request.
func handleBatch(e *Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, batchBodyCap))
		if err := dec.Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
			return
		}
		serveBatch(e, w, req.Steps, req.Results)
	}
}

// handleInputArray serves the array form of POST /sessions/{id}/input:
// many steps of ONE session, as a batch. The Idempotency-Key header is
// rejected here — it names one step, and an array is many; keys travel per
// item.
func handleInputArray(e *Engine, w http.ResponseWriter, r *http.Request, id string, body []byte) {
	if r.Header.Get("Idempotency-Key") != "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "Idempotency-Key header names one step; batched arrays carry per-item keys"})
		return
	}
	var steps []struct {
		Input relation.Instance `json:"input"`
		Key   string            `json:"key"`
	}
	if err := json.Unmarshal(body, &steps); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	items := make([]BatchItem, len(steps))
	for i, st := range steps {
		items[i] = BatchItem{Session: id, Key: st.Key, Input: st.Input}
	}
	serveBatch(e, w, items, "")
}

// isJSONArray reports whether the body's first significant byte opens an
// array — the shape switch of POST /sessions/{id}/input.
func isJSONArray(body []byte) bool {
	for _, b := range body {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		case '[':
			return true
		default:
			return false
		}
	}
	return false
}
