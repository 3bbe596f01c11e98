package replica

import (
	"net/http"
	"strings"

	"repro/internal/live"
	"repro/internal/session"
)

// StateResponse is GET /replica/state: who this backend follows and how far
// behind it is. The router uses Following to discover which backend holds a
// dead primary's standby, and Lag to bound follower-served reads.
type StateResponse struct {
	Following string     `json:"following"`
	Promoted  bool       `json:"promoted,omitempty"`
	Lag       int64      `json:"lag"` // records behind, summed over primary shards
	Shards    []shardPos `json:"shards"`
	Sessions  int        `json:"sessions"` // standby sessions held
}

// Handler wraps a backend's main handler with the replication surface:
//
//	GET  /replica/state            follower position and lag
//	GET  /replica/sessions/...     read-only views served from the standby
//	GET  /replica/networks, ...    (any GET the session API serves)
//	POST /admin/replica/promote    promote the standby into the serving engine
//
// Reads under /replica/ answer from the hot standby — the same handlers as
// the primary API, against the follower's engine, so a router can serve
// /sessions/{id}/log, /verify, or /progress from a follower and offload the
// primary. Anything but GET under /replica/ is rejected: a standby never
// mutates except through the stream.
func Handler(f *Follower, dst *session.Engine, lv *live.Service, next http.Handler) http.Handler {
	standby := session.HandlerWith(f.Engine(), lv)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /replica/state", func(w http.ResponseWriter, r *http.Request) {
		lag, pos := f.Lag()
		n := 0
		if infos, err := f.Engine().List(); err == nil {
			n = len(infos)
		}
		session.WriteJSON(w, http.StatusOK, &StateResponse{
			Following: f.Primary(),
			Promoted:  f.Promoted(),
			Lag:       lag,
			Shards:    pos,
			Sessions:  n,
		})
	})
	mux.HandleFunc("/replica/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			session.WriteJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "replica is read-only"})
			return
		}
		r2 := r.Clone(r.Context())
		r2.URL.Path = strings.TrimPrefix(r.URL.Path, "/replica")
		if r2.URL.Path == "" {
			r2.URL.Path = "/"
		}
		standby.ServeHTTP(w, r2)
	})
	mux.HandleFunc("POST /admin/replica/promote", func(w http.ResponseWriter, r *http.Request) {
		res, err := f.Promote(dst)
		if err != nil {
			session.WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		session.WriteJSON(w, http.StatusOK, res)
	})
	mux.Handle("/", next)
	return mux
}
