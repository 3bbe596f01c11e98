package cluster

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/session"
)

// Failover by promotion. Each backend may run a warm follower of another
// backend (spocus-server -follow; see internal/replica): the follower
// continuously applies the primary's committed WAL stream into a hot
// standby engine. When a primary dies, the router promotes its follower —
// the standby's sessions install into the follower's serving engine in
// O(state), and the ring pins them there. Compare replay-based recovery,
// which costs O(steps) per session against a backend that must still be
// alive to export; promotion needs nothing from the dead primary at all.
//
// The follower topology is convention, not configuration: FollowerOf
// assigns each backend the next distinct member in sorted order, so an
// operator starts backend i with -follow pointing at FollowerOf's answer
// and the router discovers the actual links live from /replica/state.

// FollowerOf returns the conventional follower for addr among members: the
// next distinct member in sorted ring order (wrapping), or "" when there is
// no other member. Deployments that follow the convention need no extra
// configuration for the router to find a dead primary's standby.
func FollowerOf(members []string, addr string) string {
	for i, m := range members {
		if m == addr {
			next := members[(i+1)%len(members)]
			if next == addr {
				return ""
			}
			return next
		}
	}
	return ""
}

// replicaState mirrors internal/replica's GET /replica/state response (kept
// structurally, not by import: the router speaks to backends only over HTTP).
type replicaState struct {
	Following string `json:"following"`
	Promoted  bool   `json:"promoted"`
	Lag       int64  `json:"lag"`
	Sessions  int    `json:"sessions"`
}

// followerInfo is one cached discovery entry: which backend follows primary,
// and the lag it reported when last asked.
type followerInfo struct {
	addr string
	lag  int64
	seen time.Time
}

// followerTTL bounds staleness of a cached follower entry; entries older
// than this are re-probed before use (and the reported lag re-read).
const followerTTL = 2 * time.Second

// followerFor returns the backend currently following primary, with its
// last-reported lag, refreshing the cache entry when stale. ok is false
// when no live backend reports following primary.
func (rt *Router) followerFor(primary string) (addr string, lag int64, ok bool) {
	rt.followersMu.Lock()
	if rt.followerCache == nil {
		rt.followerCache = make(map[string]followerInfo)
	}
	fi, have := rt.followerCache[primary]
	rt.followersMu.Unlock()
	if have && time.Since(fi.seen) < followerTTL {
		return fi.addr, fi.lag, fi.addr != ""
	}
	// Probe the conventional follower first, then every other member.
	candidates := []string{}
	if c := FollowerOf(rt.ring.Members(), primary); c != "" {
		candidates = append(candidates, c)
	}
	for _, m := range rt.ring.Members() {
		if m != primary && (len(candidates) == 0 || m != candidates[0]) {
			candidates = append(candidates, m)
		}
	}
	for _, c := range candidates {
		if !rt.ring.Up(c) {
			continue
		}
		var st replicaState
		if err := rt.client.GetJSON(context.Background(), c+"/replica/state", &st); err != nil {
			continue
		}
		if st.Following == primary && !st.Promoted {
			rt.followersMu.Lock()
			rt.followerCache[primary] = followerInfo{addr: c, lag: st.Lag, seen: time.Now()}
			rt.followersMu.Unlock()
			return c, st.Lag, true
		}
	}
	rt.followersMu.Lock()
	rt.followerCache[primary] = followerInfo{seen: time.Now()} // negative entry
	rt.followersMu.Unlock()
	return "", 0, false
}

// PromoteResult reports a completed promotion.
type PromoteResult struct {
	Backend  string   `json:"backend"`  // the failed primary
	Follower string   `json:"follower"` // the backend whose standby took over
	Sessions []string `json:"sessions"` // sessions now pinned to the follower
	TookMs   float64  `json:"took_ms"`
}

// Promote fails sessions over from a dead backend to its follower: the
// follower's standby engine promotes its copies into its serving engine,
// and every promoted session is pinned to the follower. Promotion refuses
// a backend the health checker still considers up unless force is set —
// promoting a live primary would fork the sessions' histories.
//
// Each pin takes the per-session handoff lock and re-verifies the session
// still routes to the dead backend before flipping, so a promotion racing
// a concurrent handoff of the same session can never pin a session away
// from a copy that just moved: whichever finishes second sees the other's
// pin and stands down (the loser's duplicate copy is deleted).
func (rt *Router) Promote(backend string, force bool) (*PromoteResult, error) {
	start := time.Now()
	known := false
	for _, m := range rt.ring.Members() {
		if m == backend {
			known = true
			break
		}
	}
	if !known {
		return nil, fmt.Errorf("promote: unknown backend %s", backend)
	}
	if rt.ring.Up(backend) && !force {
		return nil, fmt.Errorf("promote: %s is up (use force to promote anyway)", backend)
	}
	fol, _, ok := rt.followerFor(backend)
	if !ok {
		return nil, fmt.Errorf("promote: no live follower of %s", backend)
	}
	var pr struct {
		Sessions []string `json:"sessions"`
		Skipped  []string `json:"skipped"`
	}
	if err := rt.client.PostJSON(context.Background(), fol+"/admin/replica/promote", nil, &pr, nil); err != nil {
		return nil, fmt.Errorf("promote on %s: %w", fol, err)
	}
	res := &PromoteResult{Backend: backend, Follower: fol, Sessions: []string{}}
	for _, id := range pr.Sessions {
		if rt.pinPromoted(id, backend, fol) {
			res.Sessions = append(res.Sessions, id)
		}
	}
	// The follower's standby is spent; forget the cache entry so reads stop
	// routing there and a future follower (if one is started) re-registers.
	rt.followersMu.Lock()
	delete(rt.followerCache, backend)
	rt.followersMu.Unlock()
	rt.m.promotions.Add(1)
	res.TookMs = float64(time.Since(start).Microseconds()) / 1000
	return res, nil
}

// pinPromoted pins one promoted session to the follower under the handoff
// lock, unless a concurrent handoff already moved it elsewhere — then the
// promoted copy is the duplicate and is deleted instead.
func (rt *Router) pinPromoted(id, deadPrimary, fol string) bool {
	defer rt.lockSession(id)()
	owner, err := rt.ring.Lookup(id)
	if err == nil && owner != deadPrimary && owner != fol {
		// A handoff beat us: the session lives at owner now, and the copy
		// the standby just promoted would be a second live replica.
		rt.deleteSession(fol, id)
		return false
	}
	rt.ring.Pin(id, fol)
	return true
}

// handlePromote serves POST /admin/promote?backend=URL[&force=1].
func (rt *Router) handlePromote(w http.ResponseWriter, r *http.Request) {
	backend := r.URL.Query().Get("backend")
	if backend == "" {
		session.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "promote needs ?backend="})
		return
	}
	res, err := rt.Promote(backend, r.URL.Query().Get("force") != "")
	if err != nil {
		session.WriteJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
		return
	}
	session.WriteJSON(w, http.StatusOK, res)
}
