package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/jsonread"
	"repro/internal/relation"
)

// The batched HTTP surface. One entry, POST /batch, feeds Engine.InputBatch
// with steps of many sessions at once:
//
//	{"steps":[{"session":"s1","input":{...},"key":"..."}]}
//
// It answers 200 with positional per-item statuses; an item's failure
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
// An item whose input DecodeBatch refused answers 400 with the refusal,
// and only the others run.
func serveBatch(e *Engine, w http.ResponseWriter, items []BatchItem, refused []error, mode string) {
	if len(items) == 0 {
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "batch needs at least one step"})
		return
	}
	switch mode {
	case "", "full", "status", "errors":
	default:
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "results must be \"full\", \"status\" or \"errors\""})
		return
	}
	for i := range items {
		if items[i].Input == nil {
			items[i].Input = relation.NewInstance()
		}
	}
	ans := answerFull
	if mode == "status" || mode == "errors" {
		ans = answerAck
	}
	results := inputAdmissible(e, items, refused, ans)
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

// inputAdmissible runs the items that refused holds no error for, their
// results built as far as ans asks, and answers each refused item 400 at
// its position.
func inputAdmissible(e *Engine, items []BatchItem, refused []error, ans answer) []BatchResult {
	if refused == nil {
		return e.inputBatch(items, ans)
	}
	out := make([]BatchResult, len(items))
	var admitted []BatchItem
	var at []int
	for i := range items {
		if i < len(refused) && refused[i] != nil {
			out[i].Err = &BadInputError{Err: refused[i]}
			continue
		}
		admitted = append(admitted, items[i])
		at = append(at, i)
	}
	for j, res := range e.inputBatch(admitted, ans) {
		out[at[j]] = res
	}
	return out
}

// handleBatch serves POST /batch: multi-session (session, input, key)
// groups in one request.
func handleBatch(e *Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body := ReadBody(w, r, batchBodyCap)
		if body == nil {
			return
		}
		req, refused, err := DecodeBatch(body.Bytes())
		ReleaseBody(body)
		if err != nil {
			WriteBodyErr(w, err)
			return
		}
		serveBatch(e, w, req.Steps, refused, req.Results)
	}
}

// DecodeBatch reads POST /batch's envelope in one pass, straight into
// items. It decodes what encoding/json's Decoder decodes into a
// BatchRequest, to the same values: keys match fields case-insensitively,
// unknown fields are skipped, a null string keeps the field's value, a
// repeated key decodes over what came before it (a second "steps" array
// decodes into the first one's items, element by element), and bytes after
// the envelope are never read. One difference: an input that is valid JSON
// but refused as an instance refuses its item, not the envelope. refused[i]
// is then item i's refusal, with the single-step path's error text for
// that input; refused is nil when no item was refused.
func DecodeBatch(b []byte) (req BatchRequest, refused []error, err error) {
	var r jsonread.Reader
	r.Reset(b)
	if r.Null() || !r.Open('{') {
		return req, nil, r.Err()
	}
	for n := 0; r.More(n, '}'); n++ {
		switch k := r.Key(); {
		case jsonread.Match(k, "steps"):
			// A refusal belongs to its slot, as a value decoded into the
			// item would: a later "steps" array decoding over slot i keeps
			// it, and a null or empty one, which starts a fresh slice,
			// drops every slot.
			i := 0
			req.Steps = jsonread.Slice(&r, req.Steps, func(r *jsonread.Reader, it *BatchItem) {
				if err := readItem(r, it); err != nil {
					for len(refused) <= i {
						refused = append(refused, nil)
					}
					if refused[i] == nil {
						refused[i] = err
					}
				}
				i++
			})
			if len(req.Steps) == 0 {
				refused = nil
			}
		case jsonread.Match(k, "results"):
			if !r.Null() {
				req.Results = r.Str()
			}
		default:
			r.Skip()
		}
	}
	if r.Err() != nil {
		return req, nil, r.Err()
	}
	if len(refused) > len(req.Steps) {
		refused = refused[:len(req.Steps)]
	}
	return req, refused, nil
}

// readItem decodes one item object over it, and returns the first refusal
// of its input, if any.
func readItem(r *jsonread.Reader, it *BatchItem) (refused error) {
	if r.Null() || !r.Open('{') {
		return nil
	}
	for n := 0; r.More(n, '}'); n++ {
		switch k := r.Key(); {
		case jsonread.Match(k, "session"):
			if !r.Null() {
				it.Session = r.Str()
			}
		case jsonread.Match(k, "key"):
			if !r.Null() {
				it.Key = r.Str()
			}
		case jsonread.Match(k, "input"):
			// A refusal sticks: encoding/json, which the single-step path
			// decodes with, keeps a body's first error too.
			err := r.Try(func(r *jsonread.Reader) { it.Input, _ = relation.ReadInstance(r) })
			if err != nil && refused == nil {
				refused = fmt.Errorf("bad request body: %w", err)
			}
		default:
			r.Skip()
		}
	}
	return refused
}

// bodyBufs pools request-body buffers. A buffer that grew past
// maxPooledBody is dropped instead, so one large batch does not keep its
// size alive in the pool.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

// ReadBody reads the request body, up to limit bytes, into a pooled
// buffer, which the caller hands back with ReleaseBody once nothing it
// decoded aliases the bytes. On failure it answers the request — 413 for a
// body over the limit, 400 for any other read error — and returns nil.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) *bytes.Buffer {
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	// Size the buffer from the declared length only as far as a pooled
	// buffer goes: a client that declares 16 MiB and sends nothing must
	// not cost 16 MiB.
	if n := r.ContentLength; n > 0 && n <= maxPooledBody {
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		ReleaseBody(buf)
		WriteBodyErr(w, err)
		return nil
	}
	return buf
}

// ReleaseBody returns a buffer from ReadBody to the pool.
func ReleaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyBufs.Put(buf)
	}
}

// WriteBodyErr answers a request whose body could not be read or decoded:
// 413 for a body over its cap, 400 for anything else.
func WriteBodyErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	WriteJSON(w, status, map[string]string{"error": "bad request body: " + err.Error()})
}
