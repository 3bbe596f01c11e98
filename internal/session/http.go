package session

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/compose"
	"repro/internal/live"
	"repro/internal/models"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Handler serves the engine over HTTP/JSON:
//
//	GET    /models                 list servable model names
//	GET    /networks               list generated network names
//	GET    /sessions               list open sessions
//	POST   /sessions               open a session        {"model":"short","mode":"error-free","db":{...},"id":"..."}
//	                               or a network session  {"network":{"nodes":[...],"wires":[...]}}
//	GET    /sessions/{id}          session info
//	POST   /sessions/{id}/input    apply one step        {"input":{"order":[["time"]]}}
//	                               network joint step    {"node":"customer","facts":{"want":[["widget"]]}}
//	                               or multi-node         {"inputs":{"customer":{...},"supplier":{...}}}
//	                               or a step ARRAY       [{"input":{...},"key":"..."}, ...] → per-item statuses
//	POST   /batch                  multi-session batch   {"steps":[{"session":"...","input":{...},"key":"..."}]}
//	GET    /sessions/{id}/log      the session's durable log
//	GET    /sessions/{id}/verify   live verification     ?goal=deliver(X) | ?temporal=cond (repeatable)
//	GET    /sessions/{id}/progress ranked next inputs    ?goal=deliver(X)&limit=5
//	DELETE /sessions/{id}          close the session, returning the final log
//	GET    /healthz                liveness
//	GET    /debug/plan             compiled RA plan of a model   ?model=short
//	GET    /debug/vars             expvar ("spocus" engine metrics, "spocus_live" verification metrics, "spocus_ra" plan-engine metrics)
//	GET    /debug/pprof/...        pprof profiles
//
// Cluster-internal admin surface (used by spocus-router for handoff):
//
//	POST   /admin/sessions/{id}/export-state  freeze the session, return its ship image (octet-stream: log digest + state image)
//	POST   /admin/sessions/{id}/unfreeze      abort a handoff, thaw the session
//	POST   /admin/sessions/{id}/forget        retire a handed-off (frozen) session
//	POST   /admin/install                     install a ship image (body: the export-state bytes)
//
// Instances use the repo-wide JSON wire form: relation name → list of
// tuples of constant strings.
func Handler(e *Engine) http.Handler { return HandlerWith(e, nil) }

// HandlerWith is Handler with an explicit live verification service, so a
// server can size the verification worker pool, timeout, and caches (see
// live.Config). A nil service gets defaults.
func HandlerWith(e *Engine, lv *live.Service) http.Handler {
	if lv == nil {
		lv = live.New(live.Config{})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /models", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"models": models.Names()})
	})
	mux.HandleFunc("GET /networks", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"networks": models.NetworkNames()})
	})
	mux.HandleFunc("POST /sessions", func(w http.ResponseWriter, r *http.Request) {
		var req OpenRequest
		if !readJSON(w, r, &req) {
			return
		}
		info, err := e.Open(&req)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})
	mux.HandleFunc("GET /sessions", func(w http.ResponseWriter, r *http.Request) {
		infos, err := e.List()
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"sessions": infos})
	})
	mux.HandleFunc("GET /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := e.Info(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("POST /sessions/{id}/input", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		buf := ReadBody(w, r, batchBodyCap)
		if buf == nil {
			return
		}
		defer ReleaseBody(buf)
		body := buf.Bytes()
		// An array body is the batched form: many steps of this session,
		// answered with per-item statuses (see http_batch.go). Any other
		// body is one step, under the single-step cap.
		if isJSONArray(body) {
			handleInputArray(e, w, r, id, body)
			return
		}
		if len(body) > bodyCap {
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": "a single-step body is limited to 1 MiB; send many steps as an array or POST /batch"})
			return
		}
		var req struct {
			Input relation.Instance `json:"input"`
			// Network joint-step forms: either one node's facts
			// ({"node":"customer","facts":{...}}) or several at once
			// ({"inputs":{"customer":{...}}}). An empty joint step is
			// {"inputs":{}}.
			Node   string             `json:"node"`
			Facts  relation.Instance  `json:"facts"`
			Inputs compose.StepInputs `json:"inputs"`
			// Key is the client idempotency key (the Idempotency-Key header
			// wins when both are present): a step already applied under it is
			// answered from the log with "duplicate":true instead of being
			// applied again.
			Key string `json:"key"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			WriteBodyErr(w, err)
			return
		}
		key := r.Header.Get("Idempotency-Key")
		if key == "" {
			key = req.Key
		}
		var input any = req.Input
		if req.Input == nil {
			input = relation.NewInstance()
		}
		if req.Node != "" || req.Inputs != nil {
			ext := compose.StepInputs{}
			for name, in := range req.Inputs {
				ext[name] = in
			}
			if req.Node != "" {
				facts := req.Facts
				if facts == nil {
					facts = req.Input
				}
				if facts == nil {
					facts = relation.NewInstance()
				}
				if prev, ok := ext[req.Node]; ok {
					prev.UnionWith(facts)
				} else {
					ext[req.Node] = facts
				}
			}
			input = ext
		}
		res, err := e.step(id, key, input)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("POST /batch", handleBatch(e))
	mux.HandleFunc("GET /sessions/{id}/verify", handleVerify(e, lv))
	mux.HandleFunc("GET /sessions/{id}/progress", handleProgress(e, lv))
	mux.HandleFunc("GET /sessions/{id}/log", func(w http.ResponseWriter, r *http.Request) {
		lr, err := e.Log(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, lr)
	})
	mux.HandleFunc("DELETE /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		res, err := e.Close(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("POST /admin/sessions/{id}/export-state", func(w http.ResponseWriter, r *http.Request) {
		data, err := e.ExportState(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	})
	mux.HandleFunc("POST /admin/install", func(w http.ResponseWriter, r *http.Request) {
		// State images scale with session state and log; allow far more than
		// the 1 MiB data-plane cap (this is a cluster-internal endpoint).
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256<<20))
		if err != nil {
			WriteBodyErr(w, err)
			return
		}
		info, err := e.Install(data)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})
	mux.HandleFunc("POST /admin/sessions/{id}/unfreeze", func(w http.ResponseWriter, r *http.Request) {
		if err := e.Unfreeze(r.PathValue("id")); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("POST /admin/sessions/{id}/forget", func(w http.ResponseWriter, r *http.Request) {
		if err := e.Forget(r.PathValue("id")); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /admin/wal/state", func(w http.ResponseWriter, r *http.Request) {
		st, err := e.WALState()
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"shards": st})
	})
	mux.HandleFunc("GET /admin/wal/stream", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		shard, err := strconv.Atoi(q.Get("shard"))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad shard: " + err.Error()})
			return
		}
		from := int64(1)
		if v := q.Get("from"); v != "" {
			if from, err = strconv.ParseInt(v, 10, 64); err != nil {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad from: " + err.Error()})
				return
			}
		}
		// acked piggybacks the follower's applied LSN on the poll, so lag is
		// observable on the primary without a separate ack endpoint.
		if v := q.Get("acked"); v != "" {
			if lsn, err := strconv.ParseInt(v, 10, 64); err == nil {
				e.AckWAL(shard, lsn)
			}
		}
		wait := 25 * time.Second
		if v := q.Get("wait"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad wait: " + err.Error()})
				return
			}
			wait = d
		}
		// epoch and decoded are the reader's decoder position (see
		// storage.ReadPos); a fresh follower, or a curl, has decoded nothing.
		var pos storage.ReadPos
		if v := q.Get("epoch"); v != "" {
			if pos.Epoch, err = strconv.ParseUint(v, 10, 64); err != nil {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad epoch: " + err.Error()})
				return
			}
		}
		if v := q.Get("decoded"); v != "" {
			if pos.Decoded, err = strconv.ParseInt(v, 10, 64); err != nil {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad decoded: " + err.Error()})
				return
			}
		}
		b, err := e.StreamWAL(r.Context(), shard, from, wait, pos)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, b)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /debug/plan", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("model")
		m := getModel(name)
		if m == nil {
			writeJSON(w, http.StatusNotFound, map[string]any{"error": fmt.Sprintf("unknown model %q (have %v)", name, models.Names())})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, m.ExplainPlan())
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, bodyCap))
	if err := dec.Decode(v); err != nil {
		WriteBodyErr(w, err)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeErr maps engine errors onto HTTP statuses: unknown session → 404,
// client input problems → 400, duplicate open → 409, overloaded shard or
// per-session rate limit → 429 (with Retry-After), frozen for handoff →
// 503 (retryable: the ring is about to flip), everything else → 500.
func writeErr(w http.ResponseWriter, err error) {
	status, retryAfter := errStatus(err)
	if retryAfter != "" {
		w.Header().Set("Retry-After", retryAfter)
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// errStatus maps an engine error onto its HTTP status plus an optional
// Retry-After value in seconds ("" = none). Shared by the single-step
// response path and the per-item statuses of batch responses, so an item
// fails with exactly the code its unbatched twin would have.
func errStatus(err error) (status int, retryAfter string) {
	status = http.StatusInternalServerError
	var nf *NotFoundError
	var bad *BadInputError
	var conflict *ConflictError
	var over *OverloadedError
	var limited *RateLimitedError
	var frozen *FrozenError
	switch {
	case errors.As(err, &nf):
		status = http.StatusNotFound
	case errors.As(err, &bad):
		status = http.StatusBadRequest
	case errors.As(err, &conflict):
		status = http.StatusConflict
	case errors.As(err, &over):
		status = http.StatusTooManyRequests
		retryAfter = "1"
	case errors.As(err, &limited):
		status = http.StatusTooManyRequests
		retryAfter = retryAfterSeconds(limited.RetryAfter)
	case errors.As(err, &frozen):
		status = http.StatusServiceUnavailable
		retryAfter = "1"
	case errors.Is(err, ErrNotDurable):
		status = http.StatusPreconditionFailed
	}
	return status, retryAfter
}
